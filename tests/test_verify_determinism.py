"""Tests for the determinism linter (repro.verify pass 2, RD2xx rules)."""

import os

from repro.verify import Severity
from repro.verify.determinism_pass import verify_tree


def lint(tmp_path, source, name="fixture.py"):
    path = tmp_path / name
    path.write_text(source)
    return verify_tree([str(path)])


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


def test_order_sensitive_first_pick_is_rd203(tmp_path):
    """``next(iter(s))`` iterates the set: which element comes first
    depends on PYTHONHASHSEED. (A dict's first key is its first
    insertion, so a dict or a dict view is not flagged.)"""
    report = lint(tmp_path, (
        "def first_owner(owners, table):\n"
        "    first = next(iter({o.lower() for o in owners}))\n"
        "    return first, next(iter(table.keys()))\n"
    ))
    assert rules_and_lines(report) == [("RD203", 2)]


def test_next_iter_over_sorted_is_clean(tmp_path):
    report = lint(tmp_path, (
        "def first_owner(owners):\n"
        "    return next(iter(sorted(owners)))\n"
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


# -- the tree itself ----------------------------------------------------------


def test_repro_source_tree_is_deterministic():
    src = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    report = verify_tree([os.path.normpath(src)])
    assert report.diagnostics == [], "\n".join(
        d.render() for d in report.diagnostics)


def test_only_the_stopwatch_module_may_read_the_wall_clock(tmp_path):
    """RD201 leaves out ``repro/telemetry/timers.py`` alone, matched by
    its whole path below ``repro``: the same read in another telemetry
    module, in a telemetry subpackage's ``timers.py``, in another
    package's ``timers.py`` or in a ``telemetry/timers.py`` outside the
    ``repro`` package is flagged, and the stopwatch still gets RD202."""
    source = (
        "import random\n"
        "import time\n"
        "t = time.perf_counter()\n"
        "r = random.random()\n"
    )
    flagged = ["repro/net/timers.py", "repro/telemetry/other.py",
               "repro/telemetry/x/timers.py", "tools/telemetry/timers.py"]
    for rel in flagged + ["repro/telemetry/timers.py"]:
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    report = verify_tree([str(tmp_path)], root=str(tmp_path))
    assert sorted((d.file, d.rule) for d in report.diagnostics) == sorted(
        [(rel, rule) for rel in flagged for rule in ("RD201", "RD202")]
        + [("repro/telemetry/timers.py", "RD202")])


# -- the tree-lint driver -----------------------------------------------------

#: One fixture per tree-lint scope, by path under ``src/repro``: the
#: fast-path package (RP140 fires there, not in ``core``), emit sites
#: (RT301 fires in ``apps``) and the telemetry machinery (not an emit
#: site).
SCOPE_FIXTURES = {
    "core/replay.py": "def replay_x(switch):\n    switch.mutate()\n",
    "apps/emits.py": "tracer.emit('packet.teleport', uid=1)\n",
    "fastpath/replay.py": "def replay_x(switch):\n    switch.mutate()\n",
    "telemetry/tracer.py": "tracer.emit('packet.teleport', uid=1)\n",
}


def lint_checkout(base):
    """Write :data:`SCOPE_FIXTURES` into a checkout at ``base`` and lint
    its ``src/repro``: the summary line and the diagnostics."""
    for rel, source in SCOPE_FIXTURES.items():
        path = base / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    report = verify_tree([str(base / "src" / "repro")], root=str(base))
    return report.analyzed["tree-lint"], sorted(
        (d.rule, d.file, d.line, d.message) for d in report.diagnostics)


def test_scopes_do_not_depend_on_where_the_checkout_lives(tmp_path):
    neutral = lint_checkout(tmp_path / "neutral")
    assert neutral[0] == (
        "4 file(s): 3 emit-site file(s), 1 replay function(s), 0 "
        "partitioned app class(es)")
    assert [(rule, file, line) for rule, file, line, _ in neutral[1]] == [
        ("RP140", os.path.join("src", "repro", "fastpath", "replay.py"), 2),
        ("RT301", os.path.join("src", "repro", "apps", "emits.py"), 1),
    ]
    # A runner checking out a repository named ``repro`` nests it under
    # ``repro``; ``telemetry`` and ``repro`` above the checkout change
    # nothing either.
    assert lint_checkout(tmp_path / "telemetry" / "repro" / "ck") == neutral
    assert lint_checkout(tmp_path / "repro" / "repro") == neutral
