"""Search rewards: how candidate hardware is scored across benchmarks.

The paper uses Energy-Delay Product per network, aggregated by geometric
mean across the benchmark suite ("NAAS tries to provide a balanced
performance on all benchmarks by using geomean EDP as reward", §III-B).
"""

from __future__ import annotations

import math
from typing import Callable, Protocol, Sequence

from repro.utils.mathutils import fold_sum, geomean


class NetworkTotals(Protocol):
    """What an objective reads of one network's cost on a candidate.

    A :class:`~repro.cost.report.NetworkCost` has these attributes, and
    so do the totals the hardware search folds from its cached rows
    without building a ``NetworkCost`` (see
    :func:`repro.search.accelerator_search.evaluate_accelerators`).
    """

    @property
    def valid(self) -> bool: ...

    @property
    def total_cycles(self) -> float: ...

    @property
    def total_energy_nj(self) -> float: ...

    @property
    def edp(self) -> float: ...


#: A reward maps the per-network totals of one candidate, in network
#: order, to a scalar to minimize; infinity marks the candidate
#: invalid. It may read only the attributes of :class:`NetworkTotals`.
RewardFn = Callable[[Sequence[NetworkTotals]], float]


def geomean_edp(network_costs: Sequence[NetworkTotals]) -> float:
    """Geometric-mean EDP across networks; inf when anything is invalid."""
    if not network_costs:
        return math.inf
    edps = []
    for cost in network_costs:
        if not cost.valid or not math.isfinite(cost.edp) or cost.edp <= 0:
            return math.inf
        edps.append(cost.edp)
    return geomean(edps)


def total_latency(network_costs: Sequence[NetworkTotals]) -> float:
    """Summed cycles across networks (secondary reporting metric)."""
    return fold_sum(cost.total_cycles for cost in network_costs)


def total_energy(network_costs: Sequence[NetworkTotals]) -> float:
    """Summed energy (nJ) across networks (secondary reporting metric)."""
    return fold_sum(cost.total_energy_nj for cost in network_costs)


def geomean_latency(network_costs: Sequence[NetworkTotals]) -> float:
    """Geomean cycles across networks (latency-only objective)."""
    if not network_costs:
        return math.inf
    cycles = []
    for cost in network_costs:
        if not cost.valid or not math.isfinite(cost.total_cycles):
            return math.inf
        cycles.append(cost.total_cycles)
    return geomean(cycles)


def geomean_energy(network_costs: Sequence[NetworkTotals]) -> float:
    """Geomean energy across networks (energy-only objective)."""
    if not network_costs:
        return math.inf
    energies = []
    for cost in network_costs:
        if not cost.valid or not math.isfinite(cost.total_energy_nj):
            return math.inf
        energies.append(cost.total_energy_nj)
    return geomean(energies)
