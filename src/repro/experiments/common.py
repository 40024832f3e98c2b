"""Shared helpers for the experiment drivers."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.accelerator.arch import AcceleratorConfig
from repro.accelerator.presets import baseline_constraint, baseline_preset
from repro.cost.model import CostModel
from repro.cost.report import NetworkCost
from repro.mapping.builders import dataflow_preserving_mapping
from repro.search.accelerator_search import evaluate_accelerator
from repro.search.cache import EvaluationCache
from repro.search.diskcache import build_cache
from repro.search.mapping_search import MappingSearchBudget
from repro.search.parallel import build_evaluator
from repro.search.transport import Transport, group_worker
from repro.tensors.network import Network
from repro.utils.mathutils import geomean
from repro.utils.rng import SeedLike, seed_entropy


def baseline_costs(preset_name: str,
                   networks: Sequence[Network],
                   cost_model: CostModel,
                   ) -> Dict[str, NetworkCost]:
    """Per-network cost of a baseline preset with its *native* compiler.

    Published designs ship a fixed dataflow and a deterministic tiling
    heuristic, not an evolutionary mapper; the dataflow-preserving
    heuristic mapping plays that role, matching how the paper evaluates
    the baselines it compares against.
    """
    preset = baseline_preset(preset_name)
    costs: Dict[str, NetworkCost] = {}
    for network in networks:
        costs[network.name] = cost_model.evaluate_network(
            network, preset,
            lambda layer: dataflow_preserving_mapping(layer, preset))
    return costs


@dataclasses.dataclass(frozen=True)
class _TuneTask:
    """Picklable payload: tune one network's mappings on a preset."""

    preset: AcceleratorConfig
    network: Network
    cost_model: CostModel
    mapping_budget: MappingSearchBudget
    entropy: int


@group_worker
def _tune_networks(tasks: List[_TuneTask],
                   cache: Optional[EvaluationCache],
                   ) -> List[Optional[NetworkCost]]:
    """ParallelEvaluator group worker: tune a task group's networks
    with one :func:`evaluate_accelerator` call (the tasks of one
    tuning share everything but the network). ``None`` marks an
    unmappable network."""
    first = tasks[0]
    _, costs, _ = evaluate_accelerator(
        first.preset, [task.network for task in tasks], first.cost_model,
        first.mapping_budget, seed=first.entropy, cache=cache)
    return [costs.get(task.network.name) for task in tasks]


def tuned_baseline_costs(preset_name: str,
                         networks: Sequence[Network],
                         cost_model: CostModel,
                         mapping_budget: MappingSearchBudget,
                         seed: SeedLike = None,
                         workers: int = 1,
                         cache_dir: Optional[str] = None,
                         transport: Union[str, Transport, None] = "local",
                         workers_addr: Optional[str] = None,
                         eval_timeout: Optional[float] = None,
                         ) -> Dict[str, NetworkCost]:
    """Per-network cost of a baseline preset with *searched* mappings.

    A stronger (conservative) baseline than :func:`baseline_costs`: the
    preset gets the same mapping-search budget as NAAS candidates.
    Each network is one payload, and the evaluator partitions them
    into task groups (one per worker slot, or per connected TCP
    worker); each group is one :func:`evaluate_accelerator` call: one
    lockstep mapping search over every shape of the group's networks.
    Each shape's search depends only on the seed and the shape, so any
    partition returns the same costs. Unmappable networks are omitted
    from the result. ``cache_dir`` persists the tuned mappings across
    runs via the disk tier.
    """
    preset = baseline_preset(preset_name)
    entropy = seed_entropy(seed)
    tasks = [_TuneTask(preset=preset, network=network,
                       cost_model=cost_model,
                       mapping_budget=mapping_budget, entropy=entropy)
             for network in networks]
    with build_cache(cache_dir) as cache, build_evaluator(
            _tune_networks, workers=workers, cache=cache,
            transport=transport, workers_addr=workers_addr,
            eval_timeout=eval_timeout) as evaluator:
        outcomes = evaluator.evaluate(tasks)
    return {network.name: cost for network, cost in zip(networks, outcomes)
            if cost is not None}


def gain_rows(baseline: Dict[str, NetworkCost],
              searched: Dict[str, NetworkCost],
              ) -> Tuple[List[Tuple[str, float, float, float]],
                         float, float, float]:
    """Per-network (name, speedup, energy saving, EDP reduction) + geomeans."""
    rows = []
    for name, base in baseline.items():
        found = searched[name]
        speedup = base.total_cycles / found.total_cycles
        energy_saving = base.total_energy_nj / found.total_energy_nj
        edp_reduction = base.edp / found.edp
        rows.append((name, speedup, energy_saving, edp_reduction))
    geo_speed = geomean([r[1] for r in rows])
    geo_energy = geomean([r[2] for r in rows])
    geo_edp = geomean([r[3] for r in rows])
    return rows, geo_speed, geo_energy, geo_edp


def scenario_constraint(preset_name: str):
    """Alias kept close to the experiment code for readability."""
    return baseline_constraint(preset_name)
