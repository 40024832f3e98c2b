"""Golden digests: search results must stay bit-identical across refactors.

``tests/golden/lockstep.json`` holds a sha256 of the ``repr`` of each
search result below, restricted to its compared fields: a dataclass
field declared ``compare=False`` (reporting such as ``cache_stats``) is
left out at any depth, so the digest pins exactly what ``==`` compares.
``repr`` spells every float in full (shortest round-trip form), so equal
digests mean equal results to the last bit: best mappings, costs,
rewards and whole histories.

Regenerate deliberately (only when a change is *meant* to move search
results) with::

    PYTHONPATH=src python tests/test_golden.py --update
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict


from repro.accelerator.presets import baseline_constraint, baseline_preset
from repro.cost.model import CostModel
from repro.encoding.spaces import EncodingStyle
from repro.experiments.common import tuned_baseline_costs
from repro.models import build_model, mobile_benchmark_set
from repro.nas.joint import JointBudget, search_joint
from repro.nas.quantization import search_quantized
from repro.nas.search import NASBudget, search_architecture
from repro.search.accelerator_search import NAASBudget, search_accelerator
from repro.search.mapping_search import MappingSearchBudget, search_mapping
from repro.tensors.layer import ConvLayer, conv1x1, depthwise

GOLDEN = Path(__file__).parent / "golden" / "lockstep.json"

PRESETS = ("eyeriss", "nvdla_256", "nvdla_1024")

#: The five layers of ``tests/test_cost_batch.py``.
LAYERS = (
    ConvLayer(name="conv3x3", k=64, c=32, y=28, x=28, r=3, s=3),
    ConvLayer(name="strided", k=96, c=48, y=14, x=14, r=5, s=5, stride=2),
    depthwise("dw", channels=64, y=28, x=28),
    conv1x1("pw", k=128, c=64, y=7, x=7),
    ConvLayer(name="grouped", k=32, c=32, y=14, x=14, r=3, s=3, groups=4),
)

MAPPING_BUDGET = MappingSearchBudget(population=6, iterations=4)

#: The mapping budget of the NAS, quantization and joint cases.
TINY_MAPPING = MappingSearchBudget(population=4, iterations=2)


def compared_repr(value) -> str:
    """``repr(value)`` without the dataclass fields ``==`` ignores.

    Dataclasses, and plain tuples, lists and dicts holding them, are
    spelled as their default ``repr`` would be; everything else is
    its own ``repr``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ", ".join(
            f"{field.name}={compared_repr(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
            if field.repr and field.compare)
        return f"{type(value).__qualname__}({fields})"
    if type(value) is tuple:
        items = [compared_repr(item) for item in value]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    if type(value) is list:
        return "[" + ", ".join(compared_repr(item) for item in value) + "]"
    if type(value) is dict:
        return "{" + ", ".join(f"{compared_repr(key)}: {compared_repr(item)}"
                               for key, item in value.items()) + "}"
    return repr(value)


def _digest(value) -> str:
    return hashlib.sha256(compared_repr(value).encode()).hexdigest()


#: (name, encoding style, seed_with_heuristic) of the mapping searches.
MAPPING_VARIANTS = (
    ("importance", EncodingStyle.IMPORTANCE, True),
    ("importance-unseeded", EncodingStyle.IMPORTANCE, False),
    ("index", EncodingStyle.INDEX, False),
)


def _mapping_search(layer, preset, style,
                    seeded) -> Callable[[], object]:
    def run():
        return search_mapping(
            layer, baseline_preset(preset), CostModel(),
            budget=MAPPING_BUDGET, seed=11, style=style,
            seed_with_heuristic=seeded)
    return run


def _tuned_baselines():
    return tuned_baseline_costs("eyeriss", mobile_benchmark_set(),
                                CostModel(), MAPPING_BUDGET, seed=0)


def _accelerator_search():
    return search_accelerator(
        [build_model("squeezenet")], baseline_constraint("shidiannao"),
        CostModel(),
        budget=NAASBudget(accel_population=4, accel_iterations=2,
                          mapping=MappingSearchBudget(4, 3)),
        seed=3, seed_configs=[baseline_preset("shidiannao")])


def _architecture_search():
    return search_architecture(
        baseline_preset("nvdla_256"), CostModel(), 0.70,
        budget=NASBudget(population=4, iterations=2),
        mapping_budget=TINY_MAPPING, seed=23)


def _quantized_search():
    return search_quantized(
        baseline_preset("nvdla_256"), CostModel(), 0.66, population=4,
        iterations=2, mapping_budget=TINY_MAPPING, seed=31)


def _joint_search():
    return search_joint(
        baseline_constraint("nvdla_256"), CostModel(), 0.70,
        budget=JointBudget(accel_population=3, accel_iterations=2,
                           nas=NASBudget(population=4, iterations=2),
                           mapping=TINY_MAPPING),
        seed=29)


def cases() -> Dict[str, Callable[[], object]]:
    """Name -> zero-argument callable producing the digested result."""
    table: Dict[str, Callable[[], object]] = {}
    for variant, style, seeded in MAPPING_VARIANTS:
        for preset in PRESETS:
            for layer in LAYERS:
                table[f"mapping/{variant}/{preset}/{layer.name}"] = (
                    _mapping_search(layer, preset, style, seeded))
    table["tuned_baseline_costs/eyeriss/mobile"] = _tuned_baselines
    table["search_accelerator/squeezenet/shidiannao"] = _accelerator_search
    table["search_architecture/nvdla_256"] = _architecture_search
    table["search_quantized/nvdla_256"] = _quantized_search
    table["search_joint/nvdla_256"] = _joint_search
    return table


def compute() -> Dict[str, str]:
    return {name: _digest(run()) for name, run in cases().items()}


def test_golden_digests_unchanged():
    expected = json.loads(GOLDEN.read_text())["digests"]
    assert set(expected) == set(cases())
    actual = compute()
    changed = sorted(name for name in expected
                     if expected[name] != actual[name])
    assert not changed, f"search results moved: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({
        "about": "sha256 of repr() of each search result's compared "
                 "fields; see tests/test_golden.py",
        "digests": compute(),
    }, indent=1, sort_keys=True) + "\n")
