"""Shared helpers for the experiment drivers.

The baseline columns of the figures and tables: a preset's cost with
its native compiler heuristic (:func:`baseline_costs`) and with
searched mappings (:func:`tuned_baseline_costs`). Tuning scores each
network as one NAAS candidate of the preset, through the searches'
evaluator and group worker
(:func:`~repro.search.accelerator_search.evaluate_candidates`), so its
networks are dispatched to the local worker pool at ``workers > 1``,
and with a ``cache_dir`` the networks whose every shape is on disk are
served in the coordinator by a probe of its cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.accelerator.presets import baseline_constraint, baseline_preset
from repro.cost.model import CostModel
from repro.cost.report import NetworkCost
from repro.mapping.builders import dataflow_preserving_mapping
from repro.search.accelerator_search import (
    CandidateTask,
    evaluate_candidates,
)
from repro.search.mapping_search import MappingSearchBudget
from repro.search.parallel import ParallelEvaluator
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


def tuned_baseline_costs(preset_name: str,
                         networks: Sequence[Network],
                         cost_model: CostModel,
                         mapping_budget: MappingSearchBudget,
                         seed: SeedLike = None,
                         workers: int = 1,
                         cache_dir: Optional[str] = None,
                         transport: Optional[Transport] = None,
                         eval_timeout: Optional[float] = None,
                         ) -> Dict[str, NetworkCost]:
    """Per-network cost of a baseline preset with *searched* mappings.

    A stronger (conservative) baseline than :func:`baseline_costs`: the
    preset gets the same mapping-search budget as NAAS candidates.
    Each network is one candidate of the preset under one entropy, and
    the evaluator partitions them into task groups (one per worker
    slot); each group is one lockstep mapping search over every shape
    of the group's networks. Each shape's search depends only on the
    seed and the shape, so any partition returns the same costs.
    Unmappable networks are omitted from the result.
    ``cache_dir`` persists the tuned mappings across runs via the disk
    tier; a rerun at ``workers > 1`` serves every network whose shapes
    are all on disk in the coordinator and dispatches only the rest.
    """
    preset = baseline_preset(preset_name)
    entropy = seed_entropy(seed)
    tasks = [CandidateTask(accel=preset, networks=(network,),
                           cost_model=cost_model,
                           mapping_budget=mapping_budget, entropy=entropy)
             for network in networks]
    with ParallelEvaluator(
            evaluate_candidates, workers=workers, cache_dir=cache_dir,
            transport=transport, eval_timeout=eval_timeout) as evaluator:
        outcomes = evaluator.evaluate(tasks)
    return {name: cost for task, outcome in zip(tasks, outcomes)
            for name, cost in outcome.network_costs(task.networks).items()}


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
