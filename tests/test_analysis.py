"""Fixture-driven tests for the repro static invariant checkers.

Each rule gets at least one known-bad snippet it must flag and one
good twin it must pass, including regression snippets reconstructing
the PR-5 ``_wait_any`` stall (an unbounded ``concurrent.futures.wait``)
and the PR-2 order-dependent seeding bug (a per-candidate global-RNG
draw).  The suite ends by asserting the real tree is finding-free.
"""

from pathlib import Path

from repro.analysis import lint_paths, lint_sources

REPO_ROOT = Path(__file__).resolve().parents[1]

# Paths that activate the path-scoped rules.
PARALLEL = "src/repro/search/parallel.py"
TRANSPORT = "src/repro/search/transport.py"
NAS = "src/repro/nas/quantization.py"
COST = "src/repro/cost/model.py"
SEARCH = "src/repro/search/driver.py"
UNSCOPED = "src/repro/tensors/layout.py"


def rule_findings(path, text, rule):
    return [f for f in lint_sources([(path, text)]) if f.rule == rule]


class TestUnboundedWait:
    def test_pr5_wait_any_stall_regression(self):
        # The PR-5 bug: concurrent.futures.wait with no timeout let one
        # hung worker stall the whole schedule past --eval-timeout.
        bad = (
            "from concurrent.futures import FIRST_COMPLETED, wait\n"
            "\n"
            "\n"
            "def wait_any(pending):\n"
            "    return wait(pending, return_when=FIRST_COMPLETED)\n"
        )
        found = rule_findings(PARALLEL, bad, "unbounded-wait")
        assert [f.line for f in found] == [5]
        assert "timeout" in found[0].message

    def test_bounded_wait_passes(self):
        good = (
            "from concurrent.futures import FIRST_COMPLETED, wait\n"
            "\n"
            "\n"
            "def wait_any(pending, timeout):\n"
            "    return wait(pending, timeout=timeout,\n"
            "                return_when=FIRST_COMPLETED)\n"
        )
        assert rule_findings(PARALLEL, good, "unbounded-wait") == []

    def test_bare_future_result_flagged(self):
        bad = "def collect(future):\n    return future.result()\n"
        assert rule_findings(PARALLEL, bad, "unbounded-wait")

    def test_result_with_timeout_passes(self):
        good = (
            "def collect(future, timeout):\n"
            "    return future.result(timeout=timeout)\n"
        )
        assert rule_findings(PARALLEL, good, "unbounded-wait") == []

    def test_event_wait_and_queue_get(self):
        bad = (
            "def drain(event, tasks):\n"
            "    event.wait()\n"
            "    return tasks.get()\n"
        )
        found = rule_findings(TRANSPORT, bad, "unbounded-wait")
        assert [f.line for f in found] == [2, 3]
        good = (
            "def drain(event, tasks):\n"
            "    event.wait(1.0)\n"
            "    return tasks.get(timeout=0.25)\n"
        )
        assert rule_findings(TRANSPORT, good, "unbounded-wait") == []

    def test_dict_get_is_not_a_wait(self):
        good = "def lookup(table, key):\n    return table.get(key)\n"
        assert rule_findings(TRANSPORT, good, "unbounded-wait") == []

    def test_socket_recv_needs_a_deadline(self):
        bad = "def read(sock):\n    return sock.recv(4)\n"
        assert rule_findings(TRANSPORT, bad, "unbounded-wait")
        good = (
            "def read(sock):\n"
            "    sock.settimeout(10.0)\n"
            "    return sock.recv(4)\n"
        )
        assert rule_findings(TRANSPORT, good, "unbounded-wait") == []

    def test_rule_only_applies_to_dispatch_modules(self):
        bad = "def collect(future):\n    return future.result()\n"
        assert rule_findings(UNSCOPED, bad, "unbounded-wait") == []


class TestLockDiscipline:
    BAD = (
        "class Buffer:\n"
        "    _GUARDED_BY = {\"_slots\": \"_lock\"}\n"
        "\n"
        "    def __init__(self, lock):\n"
        "        self._lock = lock\n"
        "        self._slots = []\n"
        "\n"
        "    def land(self, outcome):\n"
        "        self._slots.append(outcome)\n"
    )

    def test_bare_access_flagged(self):
        found = rule_findings(UNSCOPED, self.BAD, "lock-discipline")
        assert [f.line for f in found] == [9]
        assert "_slots" in found[0].message

    def test_init_is_exempt(self):
        found = rule_findings(UNSCOPED, self.BAD, "lock-discipline")
        assert all(f.line != 6 for f in found)

    def test_locked_access_passes(self):
        good = self.BAD.replace(
            "    def land(self, outcome):\n"
            "        self._slots.append(outcome)\n",
            "    def land(self, outcome):\n"
            "        with self._lock:\n"
            "            self._slots.append(outcome)\n",
        )
        assert rule_findings(UNSCOPED, good, "lock-discipline") == []

    def test_nested_callback_does_not_inherit_the_lock(self):
        bad = self.BAD.replace(
            "    def land(self, outcome):\n"
            "        self._slots.append(outcome)\n",
            "    def land(self, outcome):\n"
            "        with self._lock:\n"
            "            def callback():\n"
            "                self._slots.append(outcome)\n"
            "            return callback\n",
        )
        assert rule_findings(UNSCOPED, bad, "lock-discipline")


class TestDeterminism:
    def test_pr2_order_dependent_seeding_regression(self):
        # The PR-2 bug class: a per-candidate draw from the *global*
        # RNG makes results depend on evaluation order, breaking the
        # workers=1 <-> workers=N bit-identity contract.
        bad = (
            "import numpy as np\n"
            "\n"
            "\n"
            "def seeds_for(candidates):\n"
            "    return [np.random.randint(0, 2**31)\n"
            "            for _ in candidates]\n"
        )
        found = rule_findings(NAS, bad, "determinism")
        assert found and "global-RNG" in found[0].message

    def test_content_derived_seeding_passes(self):
        good = (
            "import numpy as np\n"
            "\n"
            "from repro.utils.rng import derive_seed\n"
            "\n"
            "\n"
            "def rng_for(entropy, key):\n"
            "    return np.random.default_rng(derive_seed(entropy, key))\n"
        )
        assert rule_findings(NAS, good, "determinism") == []

    def test_unseeded_default_rng_flagged(self):
        bad = (
            "import numpy as np\n"
            "\n"
            "rng = np.random.default_rng()\n"
        )
        found = rule_findings(SEARCH, bad, "determinism")
        assert found and "without a seed" in found[0].message

    def test_stdlib_random_flagged(self):
        bad = (
            "import random\n"
            "\n"
            "\n"
            "def jitter():\n"
            "    return random.random()\n"
        )
        assert rule_findings(COST, bad, "determinism")

    def test_wall_clock_flagged_but_monotonic_passes(self):
        bad = "import time\n\nstamp = time.time()\n"
        assert rule_findings(COST, bad, "determinism")
        good = "import time\n\nstarted = time.monotonic()\n"
        assert rule_findings(COST, good, "determinism") == []

    def test_set_iteration_flagged(self):
        bad = (
            "def names(mapping):\n"
            "    return list({\"pe\", \"buf\"})\n"
        )
        assert rule_findings(SEARCH, bad, "determinism")
        good = (
            "def names(mapping):\n"
            "    return sorted({\"pe\", \"buf\"})\n"
        )
        assert rule_findings(SEARCH, good, "determinism") == []

    def test_rule_only_applies_to_deterministic_path(self):
        bad = "import time\n\nstamp = time.time()\n"
        assert rule_findings(UNSCOPED, bad, "determinism") == []


class TestResourceOwnership:
    def test_unowned_transport_flagged(self):
        bad = (
            "from repro.search.transport import TcpTransport\n"
            "\n"
            "\n"
            "def serve(addr):\n"
            "    transport = TcpTransport(bind=addr)\n"
            "    return transport.address\n"
        )
        found = rule_findings(SEARCH, bad, "resource-ownership")
        assert [f.line for f in found] == [5]

    def test_with_statement_owns(self):
        good = (
            "from repro.search.transport import TcpTransport\n"
            "\n"
            "\n"
            "def serve(addr):\n"
            "    with TcpTransport(bind=addr) as transport:\n"
            "        return transport.address\n"
        )
        assert rule_findings(SEARCH, good, "resource-ownership") == []

    def test_try_finally_owns(self):
        good = (
            "from repro.search.transport import TcpTransport\n"
            "\n"
            "\n"
            "def serve(addr):\n"
            "    transport = TcpTransport(bind=addr)\n"
            "    try:\n"
            "        return transport.address\n"
            "    finally:\n"
            "        transport.close()\n"
        )
        assert rule_findings(SEARCH, good, "resource-ownership") == []

    def test_owner_annotation_recognizes_handoff(self):
        good = (
            "from repro.search.transport import TcpTransport\n"
            "\n"
            "\n"
            "def make(addr):\n"
            "    # repro: owner(the caller)\n"
            "    return TcpTransport(bind=addr)\n"
        )
        assert rule_findings(SEARCH, good, "resource-ownership") == []

    def test_self_attribute_with_close_owns(self):
        good = (
            "class Holder:\n"
            "    def __init__(self, path):\n"
            "        self._handle = open(path, \"ab\")\n"
            "\n"
            "    def close(self):\n"
            "        self._handle.close()\n"
        )
        assert rule_findings(SEARCH, good, "resource-ownership") == []

    def test_argument_of_a_with_item_is_not_owned(self):
        """The with owns the evaluator, not the cache built inline as
        its argument: nothing closes that one."""
        bad = (
            "from repro.search.diskcache import build_cache\n"
            "\n"
            "\n"
            "def run(evaluator_for, cache_dir):\n"
            "    with evaluator_for(cache=build_cache(cache_dir)) as ev:\n"
            "        return ev.evaluate([])\n"
        )
        found = rule_findings(SEARCH, bad, "resource-ownership")
        assert [(f.line, f.message) for f in found] == [
            (5, "build_cache(...) constructed without an owner")]

    def test_conditional_with_item_owns_both_branches(self):
        good = (
            "from contextlib import nullcontext\n"
            "from repro.search.diskcache import build_cache\n"
            "\n"
            "\n"
            "def run(cache, cache_dir):\n"
            "    with (nullcontext(cache) if cache is not None\n"
            "          else build_cache(cache_dir)) as run_cache:\n"
            "        return run_cache.stats()\n"
        )
        assert rule_findings(SEARCH, good, "resource-ownership") == []

    def test_nas_entry_points_are_in_scope(self):
        bad = (
            "from repro.search.diskcache import build_cache\n"
            "\n"
            "\n"
            "def search(cache_dir):\n"
            "    cache = build_cache(cache_dir)\n"
            "    return cache.stats()\n"
        )
        found = rule_findings("src/repro/nas/search.py", bad,
                              "resource-ownership")
        assert [f.line for f in found] == [5]


class TestCacheKey:
    DIGEST = (
        "def content_digest(*parts):\n"
        "    return \"|\".join(repr(p) for p in parts)\n"
    )
    PARAMS = (
        "from dataclasses import dataclass, field\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class CostParams:\n"
        "    mac_energy: float = 1.0\n"
        "    sram_cost: float = 2.0\n"
    )
    BUDGET = (
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class MappingSearchBudget:\n"
        "    population: int = 8\n"
        "    iterations: int = 4\n"
    )
    CALLER = (
        "from repro.cost.config import CostParams\n"
        "from repro.search.mapping_search import MappingSearchBudget\n"
        "from repro.search.diskcache import content_digest\n"
        "\n"
        "\n"
        "def disk_key(entropy, key, budget: MappingSearchBudget,\n"
        "             params: CostParams):\n"
        "    return content_digest(entropy, key, budget, params)\n"
    )

    def project(self, **overrides):
        files = {
            "src/repro/search/diskcache.py": self.DIGEST,
            "src/repro/cost/config.py": self.PARAMS,
            "src/repro/search/mapping_search.py": self.BUDGET,
            "src/repro/search/accelerator_search.py": self.CALLER,
        }
        files.update(overrides)
        found = lint_sources(sorted(files.items()))
        return [f for f in found if f.rule == "cache-key"]

    def test_complete_project_passes(self):
        assert self.project() == []

    def test_repr_false_field_breaks_the_key(self):
        leaky = self.PARAMS.replace(
            "    sram_cost: float = 2.0\n",
            "    sram_cost: float = field(default=2.0, repr=False)\n",
        )
        found = self.project(**{"src/repro/cost/config.py": leaky})
        assert found and "repr" in found[0].message

    def test_custom_repr_breaks_the_key(self):
        hidden = self.PARAMS + (
            "\n"
            "    def __repr__(self):\n"
            "        return \"CostParams()\"\n"
        )
        found = self.project(**{"src/repro/cost/config.py": hidden})
        assert found and "__repr__" in found[0].message

    def test_unfrozen_dataclass_flagged(self):
        thawed = self.PARAMS.replace(
            "@dataclass(frozen=True)\nclass CostParams:",
            "@dataclass\nclass CostParams:",
        )
        found = self.project(**{"src/repro/cost/config.py": thawed})
        assert found and "frozen" in found[0].message

    def test_class_missing_from_call_sites_flagged(self):
        partial = self.CALLER.replace(
            "    return content_digest(entropy, key, budget, params)\n",
            "    return content_digest(entropy, key, budget)\n",
        ).replace(",\n             params: CostParams", "")
        found = self.project(
            **{"src/repro/search/accelerator_search.py": partial}
        )
        assert found
        assert any("CostParams" in f.message for f in found)
        assert all("MappingSearchBudget" not in f.message for f in found)


class TestFormat:
    def test_long_line_flagged(self):
        bad = "x = \"" + "a" * 90 + "\"\n"
        found = rule_findings(UNSCOPED, bad, "format")
        assert found and "columns" in found[0].message

    def test_single_quotes_flagged(self):
        bad = "name = 'pe_array'\n"
        found = rule_findings(UNSCOPED, bad, "format")
        assert found and "double quotes" in found[0].message

    def test_double_quotes_pass(self):
        good = "name = \"pe_array\"\n"
        assert rule_findings(UNSCOPED, good, "format") == []

    def test_single_quotes_embedding_doubles_pass(self):
        good = "quip = 'a \"quoted\" word'\n"
        assert rule_findings(UNSCOPED, good, "format") == []

    def test_fstrings_are_checked(self):
        bad = "label = f'{1 + 1}'\n"
        found = rule_findings(UNSCOPED, bad, "format")
        assert found and "double quotes" in found[0].message


class TestSuppression:
    BAD_LINE = "stamp = time.time()"

    def test_allow_with_reason_suppresses(self):
        text = (
            "import time\n"
            "\n"
            f"{self.BAD_LINE}  # repro: allow(determinism) -- log stamp\n"
        )
        assert lint_sources([(COST, text)]) == []

    def test_allow_without_reason_is_a_finding_and_no_suppression(self):
        text = (
            "import time\n"
            "\n"
            f"{self.BAD_LINE}  # repro: allow(determinism)\n"
        )
        found = lint_sources([(COST, text)])
        rules = {f.rule for f in found}
        assert "suppression" in rules
        assert "determinism" in rules

    def test_allow_for_a_different_rule_does_not_suppress(self):
        text = (
            "import time\n"
            "\n"
            f"{self.BAD_LINE}  # repro: allow(format) -- wrong rule\n"
        )
        found = lint_sources([(COST, text)])
        assert any(f.rule == "determinism" for f in found)

    def test_unknown_rule_name_is_a_finding(self):
        text = (
            "import time\n"
            "\n"
            f"{self.BAD_LINE}  # repro: allow(no-such-rule) -- oops\n"
        )
        found = lint_sources([(COST, text)])
        rules = {f.rule for f in found}
        assert "suppression" in rules
        assert "determinism" in rules

    def test_standalone_allow_binds_to_next_statement(self):
        text = (
            "import time\n"
            "\n"
            "# repro: allow(determinism) -- cache-hygiene cutoff only;\n"
            "# never feeds a result\n"
            "cutoff = (time.time()\n"
            "          - 86400.0)\n"
        )
        assert lint_sources([(COST, text)]) == []

    def test_suppression_itself_cannot_be_allowed(self):
        text = (
            "import time\n"
            "\n"
            f"{self.BAD_LINE}  "
            "# repro: allow(determinism, suppression)\n"
        )
        found = lint_sources([(COST, text)])
        assert any(f.rule == "suppression" for f in found)

    def test_syntax_errors_are_findings(self):
        found = lint_sources([(UNSCOPED, "def broken(:\n")])
        assert any(f.rule == "syntax" for f in found)


class TestCommandLine:
    def test_lint_clean_file_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = \"ok\"\n", encoding="utf-8")
        assert main(["lint", str(clean)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_dirty_file_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        dirty = tmp_path / "dirty.py"
        dirty.write_text("VALUE = 'bad'\n", encoding="utf-8")
        assert main(["lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "[format]" in out and "1 finding" in out

    def test_lint_missing_path_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nope"
        assert main(["lint", str(missing)]) == 2
        assert "no such file" in capsys.readouterr().out

    def test_module_entry_point_matches(self, tmp_path):
        from repro.analysis import main as lint_main

        dirty = tmp_path / "dirty.py"
        dirty.write_text("VALUE = 'bad'\n", encoding="utf-8")
        assert lint_main([str(dirty)]) == 1


class TestTreeIsClean:
    def test_src_and_tests_have_zero_findings(self):
        findings = lint_paths(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
        )
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"repro lint found:\n{rendered}"
