"""Analytical accelerator cost model (the MAESTRO substitute).

Given a (layer, accelerator, mapping) triple the model reports latency in
cycles, energy in nJ, EDP, utilization, per-level traffic and buffer
requirements. The core is a *reuse-window* analysis (:mod:`repro.cost.reuse`)
applied twice:

- at the **array level** (DRAM <-> L2) on tile-granular loops, budgeted by
  the L2 capacity, and
- at the **PE level** (L2 <-> PE) on element-granular loops, budgeted by
  the per-PE L1 capacity,

combined with spatial multicast/reduction factors from the array's
parallel dimensions. Absolute joules/cycles are calibrated to
Eyeriss/Accelergy-style per-access energies; the search only consumes
*relative* orderings, which is what the analysis preserves.

Two equivalent surfaces exist: scalar ``CostModel.evaluate`` (the
reference implementation) and the array kernel of
:mod:`repro.cost.batch`, reached through ``CostModel.evaluate_lanes``
(many layers' mappings in one pass, results as arrays) or its
one-layer wrapper ``CostModel.evaluate_batch``; both produce
bit-identical ``LayerCost`` values.
"""

from repro.cost.batch import analyze_traffic_batch
from repro.cost.config import CostParams
from repro.cost.model import CostModel
from repro.cost.report import LayerCost, NetworkCost

__all__ = ["CostModel", "CostParams", "LayerCost", "NetworkCost",
           "analyze_traffic_batch"]
