"""Cost reports: per-layer and per-network evaluation results.

EDP follows the paper's unit convention (Table III): cycles x nJ.
Invalid design points report infinite cost so search loops can rank them
out without special-casing.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

from repro.cost.energy import EnergyReport
from repro.cost.latency import LatencyReport
from repro.cost.traffic import TrafficReport
from repro.utils.mathutils import fold_sum


@dataclasses.dataclass(frozen=True)
class LayerCost:
    """Evaluation result of one (layer, accelerator, mapping) triple."""

    layer_name: str
    valid: bool
    reasons: Tuple[str, ...] = ()
    cycles: float = math.inf
    energy_nj: float = math.inf
    utilization: float = 0.0
    macs: int = 0
    traffic: Optional[TrafficReport] = None
    latency: Optional[LatencyReport] = None
    energy: Optional[EnergyReport] = None

    @property
    def edp(self) -> float:
        """Energy-delay product in cycles x nJ (the paper's reward)."""
        if not self.valid:
            return math.inf
        return self.cycles * self.energy_nj

    @classmethod
    def invalid(cls, layer_name: str, reasons: Tuple[str, ...]) -> "LayerCost":
        return cls(layer_name=layer_name, valid=False, reasons=reasons)


@dataclasses.dataclass(frozen=True)
class NetworkCost:
    """Aggregated cost of a whole network on one accelerator.

    Layers run sequentially on a single accelerator, so cycles and energy
    add; EDP is computed on the totals (matching how the paper reports a
    single EDP per network).
    """

    network_name: str
    layer_costs: Tuple[LayerCost, ...]

    @property
    def valid(self) -> bool:
        return all(cost.valid for cost in self.layer_costs)

    @property
    def total_cycles(self) -> float:
        if not self.valid:
            return math.inf
        return fold_sum(cost.cycles for cost in self.layer_costs)

    @property
    def total_energy_nj(self) -> float:
        if not self.valid:
            return math.inf
        return fold_sum(cost.energy_nj for cost in self.layer_costs)

    @property
    def edp(self) -> float:
        if not self.valid:
            return math.inf
        return self.total_cycles * self.total_energy_nj

    @property
    def mean_utilization(self) -> float:
        """MAC-weighted utilization across layers."""
        total_macs = sum(cost.macs for cost in self.layer_costs)
        if total_macs == 0:
            return 0.0
        return fold_sum(cost.utilization * cost.macs
                        for cost in self.layer_costs) / total_macs

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": self.total_cycles,
            "energy_nj": self.total_energy_nj,
            "edp": self.edp,
            "utilization": self.mean_utilization,
        }
