"""Tests for the determinism linter (repro.verify pass 2, RD2xx rules)."""

import os

from repro.verify import Report, Severity, SuppressionIndex
from repro.verify.determinism_pass import verify_determinism


def lint(tmp_path, source, name="fixture.py"):
    path = tmp_path / name
    path.write_text(source)
    supp = SuppressionIndex()
    report = verify_determinism([str(path)], suppressions=supp)
    report.finalize_suppressions(supp)
    return report


def rules_and_lines(report):
    return sorted((d.rule, d.line) for d in report.diagnostics)


# -- RD201: wall clock --------------------------------------------------------


def test_wall_clock_detected(tmp_path):
    report = lint(tmp_path, (
        "import time\n"                       # 1
        "from datetime import datetime\n"     # 2
        "def now_us():\n"                     # 3
        "    return time.time() * 1e6\n"      # 4
        "def stamp():\n"                      # 5
        "    return datetime.now()\n"         # 6
    ))
    assert rules_and_lines(report) == [("RD201", 4), ("RD201", 6)]
    assert all(d.severity is Severity.ERROR for d in report.diagnostics)


def test_perf_counter_detected(tmp_path):
    report = lint(tmp_path, (
        "import time\n"
        "t0 = time.perf_counter()\n"
    ))
    assert rules_and_lines(report) == [("RD201", 2)]


# -- RD202: unseeded randomness -----------------------------------------------


def test_unseeded_random_constructor_detected(tmp_path):
    report = lint(tmp_path, (
        "import random\n"
        "rng = random.Random()\n"
    ))
    assert rules_and_lines(report) == [("RD202", 2)]


def test_seeded_random_is_clean(tmp_path):
    report = lint(tmp_path, (
        "import random\n"
        "rng = random.Random(42)\n"
        "rng2 = random.Random(seed := 7)\n"
    ))
    assert report.diagnostics == []


def test_global_rng_functions_detected(tmp_path):
    report = lint(tmp_path, (
        "import random\n"
        "from random import shuffle\n"
        "x = random.randint(0, 9)\n"
        "shuffle([1, 2, 3])\n"
    ))
    assert rules_and_lines(report) == [("RD202", 3), ("RD202", 4)]


# -- RD203: set iteration order -----------------------------------------------


def test_set_iteration_detected(tmp_path):
    report = lint(tmp_path, (
        "names = {'a', 'b'}\n"
        "def run(items):\n"
        "    for n in set(items):\n"
        "        print(n)\n"
        "    return [x for x in {1, 2} | set(items)]\n"
    ))
    assert rules_and_lines(report) == [("RD203", 3), ("RD203", 5)]


def test_sorted_set_iteration_is_clean(tmp_path):
    report = lint(tmp_path, (
        "def run(items, other):\n"
        "    for n in sorted(set(items)):\n"
        "        print(n)\n"
        "    ok = any(x in other for x in set(items) - {None})\n"
        "    total = sum(x for x in set(items))\n"
        "    return ok, total\n"
    ))
    assert report.diagnostics == []


# -- RD204: identity ordering -------------------------------------------------


def test_id_sort_key_detected(tmp_path):
    report = lint(tmp_path, (
        "def order(blocks):\n"
        "    blocks.sort(key=lambda b: id(b))\n"
        "    return sorted(blocks, key=lambda b: (b.name, id(b)))\n"
    ))
    assert rules_and_lines(report) == [("RD204", 2), ("RD204", 3)]


def test_stable_sort_key_is_clean(tmp_path):
    report = lint(tmp_path, (
        "def order(blocks):\n"
        "    return sorted(blocks, key=lambda b: b.name)\n"
    ))
    assert report.diagnostics == []


# -- suppressions -------------------------------------------------------------


def test_justified_suppression_waives_the_error(tmp_path):
    report = lint(tmp_path, (
        "import time\n"
        "t = time.perf_counter()"
        "  # repro: noqa[RD201] -- wall-clock profiler fixture\n"
    ))
    assert len(report.diagnostics) == 1
    diag = report.diagnostics[0]
    assert diag.rule == "RD201"
    assert diag.suppressed
    assert diag.justification == "wall-clock profiler fixture"
    assert report.exit_code() == 0


def test_suppression_without_justification_is_qa001(tmp_path):
    report = lint(tmp_path, (
        "import time\n"
        "t = time.perf_counter()  # repro: noqa[RD201]\n"
    ))
    rules = sorted(d.rule for d in report.diagnostics)
    assert rules == ["QA001", "RD201"]
    assert report.exit_code() == 1


def test_unused_suppression_is_qa002(tmp_path):
    report = lint(tmp_path, (
        "x = 1  # repro: noqa[RD201] -- nothing here needs waiving\n"
    ))
    rules = sorted(d.rule for d in report.diagnostics)
    assert rules == ["QA002"]
    assert report.exit_code() == 0  # warning only
    assert report.exit_code(strict=True) == 1


def test_finalize_rules_filter_scopes_qa002_to_the_pass(tmp_path):
    # An unused suppression of another pass's rule (RT304 is telemetry's)
    # is not this pass's business when finalize is scoped to RD rules --
    # but an unused RD suppression still is.
    path = tmp_path / "fixture.py"
    path.write_text(
        "a = 1  # repro: noqa[RT304] -- belongs to the telemetry pass\n"
        "b = 2  # repro: noqa[RD201] -- stale, should still be QA002\n"
    )
    supp = SuppressionIndex()
    report = verify_determinism([str(path)], suppressions=supp)
    report.finalize_suppressions(supp, rules=("RD",))
    assert [(d.rule, d.line) for d in report.diagnostics] == [("QA002", 2)]


def test_docstring_mentioning_noqa_is_not_a_suppression(tmp_path):
    report = lint(tmp_path, (
        '"""Docs may show `# repro: noqa[RD201] -- why` verbatim."""\n'
        "x = 1\n"
    ))
    assert report.diagnostics == []


# -- the tree itself ----------------------------------------------------------


def test_repro_source_tree_is_deterministic():
    src = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    supp = SuppressionIndex()
    report = verify_determinism([os.path.normpath(src)], suppressions=supp)
    # Only the determinism pass ran: scope the unused-suppression check
    # to RD rules, or other passes' noqas in the tree would false-flag.
    report.finalize_suppressions(supp, rules=("RD",))
    offending = report.active()
    assert offending == [], "\n".join(d.render() for d in offending)
    # The one sanctioned wall-clock reader is waived, with justification:
    # the ScopedTimer. Nothing else — the simulator itself included —
    # may read the host clock.
    sanctioned = ("timers.py",)
    suppressed = [d for d in report.diagnostics if d.suppressed]
    assert {d.rule for d in suppressed} == {"RD201"}
    assert all(d.file.endswith(sanctioned) for d in suppressed), \
        "\n".join(d.render() for d in suppressed)
