"""The cost-model facade: evaluate layers and networks.

This is the "Hardware Evaluation Environment" box of the paper's Fig 1
(MAESTRO in the original). Deterministic, analytical, and fast enough to
sit inside a three-level evolutionary search.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.accelerator.arch import AcceleratorConfig
from repro.accelerator.validation import validate_architecture
from repro.cost.batch import (
    AccelsLike,
    LaneAccels,
    LaneCosts,
    LaneLayers,
    LaneMappings,
    analyze_traffic_batch,
    cost_lanes,
)
from repro.cost.config import DEFAULT_PARAMS, CostParams
from repro.cost.energy import analyze_energy
from repro.cost.latency import analyze_latency
from repro.cost.report import LayerCost, NetworkCost
from repro.cost.traffic import analyze_traffic
from repro.mapping.mapping import Mapping
from repro.tensors.layer import ConvLayer
from repro.tensors.network import Network


class CostModel:
    """Analytical evaluator for (layer, accelerator, mapping) triples."""

    def __init__(self, params: CostParams = DEFAULT_PARAMS) -> None:
        self.params = params

    def evaluate(self, layer: ConvLayer, accel: AcceleratorConfig,
                 mapping: Mapping) -> LayerCost:
        """Cost of one layer under one mapping; invalid points get inf."""
        problems = validate_architecture(accel)
        if problems:
            return LayerCost.invalid(layer.name, tuple(problems))
        if not mapping.legal_for(layer):
            return LayerCost.invalid(
                layer.name, ("mapping tiles exceed layer dimensions",))

        traffic = analyze_traffic(layer, accel, mapping, self.params)
        if not traffic.feasible:
            return LayerCost.invalid(layer.name, traffic.reasons)

        latency = analyze_latency(accel, traffic, self.params)
        cycles = latency.cycles
        energy = analyze_energy(layer, accel, traffic, cycles, self.params)
        utilization = layer.macs / max(
            1.0, latency.compute_cycles * accel.num_pes)
        return LayerCost(
            layer_name=layer.name,
            valid=True,
            cycles=cycles,
            energy_nj=energy.total_nj,
            utilization=min(1.0, utilization),
            macs=layer.macs,
            traffic=traffic,
            latency=latency,
            energy=energy,
        )

    def evaluate_batch(self, layer: ConvLayer, accel: AcceleratorConfig,
                       mappings: Sequence[Mapping]) -> List[LayerCost]:
        """Cost of one layer under many mappings, in one vectorized pass.

        Equivalent to ``[self.evaluate(layer, accel, m) for m in
        mappings]`` to full float equality (the scalar path is the
        reference implementation). A thin wrapper over
        :meth:`evaluate_lanes` that builds every lane's ``LayerCost``.
        """
        mappings = list(mappings)
        if not mappings:
            return []
        costs = self.evaluate_lanes(
            LaneLayers([layer], [0] * len(mappings)), accel,
            LaneMappings.from_mappings(mappings))
        return [costs.layer_cost(lane) for lane in range(len(mappings))]

    def evaluate_lanes(self, lanes: LaneLayers, accels: AccelsLike,
                       mappings: LaneMappings) -> LaneCosts:
        """Cost of lane ``i``'s mapping on lane ``i``'s layer and
        accelerator, all lanes in one array pass (see
        :mod:`repro.cost.batch`).

        ``accels`` is a :class:`~repro.cost.batch.LaneAccels`, or one
        accelerator every lane shares. Lanes may belong to different
        layers and accelerators. Lanes without a mapping
        (``mappings.ok`` false) come back invalid with ``edp`` inf, and
        so do the lanes of an accelerator that fails
        :func:`validate_architecture`, with its problems as the reasons.
        The searches call only this surface, so a subclass that shapes
        costs overrides it, not the scalar :meth:`evaluate`.
        """
        accels = LaneAccels.of(accels, len(lanes))
        traffic = analyze_traffic_batch(lanes, accels, mappings, self.params)
        return cost_lanes(lanes, accels, mappings, self.params, traffic,
                          [validate_architecture(accel)
                           for accel in accels.accels])

    def evaluate_network(self, network: Network, accel: AcceleratorConfig,
                         mapping_for: Callable[[ConvLayer], Mapping],
                         ) -> NetworkCost:
        """Cost of a whole network; ``mapping_for`` supplies per-layer maps.

        Unique layer shapes are evaluated once and weighted by their
        multiplicity, which is what makes deep residual nets cheap to
        score inside the search loop.
        """
        layer_costs = []
        for layer, count in network.unique_shapes():
            cost = self.evaluate(layer, accel, mapping_for(layer))
            for _ in range(count):
                layer_costs.append(cost)
        return NetworkCost(network_name=network.name,
                           layer_costs=tuple(layer_costs))

    def evaluate_with_mappings(self, network: Network,
                               accel: AcceleratorConfig,
                               mappings: Dict[str, Mapping]) -> NetworkCost:
        """Evaluate with an explicit {layer name -> mapping} table."""
        def mapping_for(layer: ConvLayer) -> Mapping:
            return mappings[layer.name]
        return self.evaluate_network(network, accel, mapping_for)


def theoretical_peak_cycles(layers: Sequence[ConvLayer],
                            accel: AcceleratorConfig) -> float:
    """Lower bound on cycles: perfect utilization of every PE."""
    macs = sum(layer.macs for layer in layers)
    return macs / accel.num_pes
