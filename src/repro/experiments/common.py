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
from repro.search.parallel import (
    build_evaluator,
    resolve_workers,
    split_chunks,
)
from repro.search.transport import Transport
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
class _ChunkTask:
    """Picklable payload: tune a chunk of networks' mappings on a preset."""

    preset: AcceleratorConfig
    networks: Tuple[Network, ...]
    cost_model: CostModel
    mapping_budget: MappingSearchBudget
    entropy: int


def _tune_chunk(task: _ChunkTask,
                cache: Optional[EvaluationCache]) -> Dict[str, NetworkCost]:
    _, costs, _ = evaluate_accelerator(
        task.preset, task.networks, task.cost_model, task.mapping_budget,
        seed=task.entropy, cache=cache)
    return costs


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
    The networks are split into one contiguous chunk per worker slot,
    and each chunk is one :func:`evaluate_accelerator` call: one
    lockstep mapping search over every shape of the chunk's networks.
    Each shape's search depends only on the seed and the shape, so any
    worker count returns the same costs. Unmappable networks are
    omitted from the result. ``cache_dir`` persists the tuned mappings
    across runs via the disk tier.
    """
    preset = baseline_preset(preset_name)
    entropy = seed_entropy(seed)
    tasks = [_ChunkTask(preset=preset, networks=tuple(chunk),
                        cost_model=cost_model,
                        mapping_budget=mapping_budget, entropy=entropy)
             for chunk in split_chunks(networks, resolve_workers(workers))]
    with build_evaluator(_tune_chunk, workers=workers,
                         cache=build_cache(cache_dir),
                         transport=transport, workers_addr=workers_addr,
                         eval_timeout=eval_timeout) as evaluator:
        outcomes = evaluator.evaluate(tasks)
    tuned = {name: cost for costs in outcomes for name, cost in costs.items()}
    return {network.name: tuned[network.name]
            for network in networks if network.name in tuned}


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
