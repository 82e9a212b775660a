"""Tests for the fast-path replay lint (repro.verify pass 4, RP14x)."""

import os

from repro.verify import Report, Severity
from repro.verify.determinism_pass import verify_tree
from repro.verify.rules import RULES


def lint(tmp_path, source, name="fixture.py", in_fastpath=False):
    directory = tmp_path / ("fastpath" if in_fastpath else "plain")
    directory.mkdir(exist_ok=True)
    path = directory / name
    path.write_text(source)
    return verify_tree([str(path)])


def rules_of(report):
    return sorted(d.rule for d in report.diagnostics)


def test_rules_are_registered():
    for rule_id in ("RP140", "RP141"):
        assert RULES[rule_id].owner == "fastpath"
        assert RULES[rule_id].severity is Severity.ERROR


# -- RP140: replay side-effect surface ----------------------------------------


def test_replay_with_undeclared_call_flagged(tmp_path):
    report = lint(tmp_path, (
        "def replay_evil(switch, pkt, ip):\n"
        "    switch.table.add(ip.dst, 32, [])\n"   # 'add' not allowlisted
    ), in_fastpath=True)
    assert rules_of(report) == ["RP140"]


def test_replay_with_undeclared_assignment_flagged(tmp_path):
    report = lint(tmp_path, (
        "def replay_evil(switch, pkt, ip):\n"
        "    switch.owner = 7\n"
    ), in_fastpath=True)
    assert rules_of(report) == ["RP140"]


def test_replay_within_surface_is_clean(tmp_path):
    report = lint(tmp_path, (
        "def replay_ok(switch, pkt, ip):\n"
        "    switch._c_pkts_processed.inc()\n"
        "    switch._egress(pkt)\n"
    ), in_fastpath=True)
    assert rules_of(report) == []


def test_declared_entry_kinds_are_clean(tmp_path):
    """Building entries outside a replay function is no replay effect:
    the dispatcher may construct any of the kinds ``Entry`` names."""
    report = lint(tmp_path, (
        "from repro.fastpath.flowcache import Entry\n"
        "a = Entry(\"transit\", None)\n"
        "b = Entry(\"app\", \"key\")\n"
    ), in_fastpath=True)
    assert rules_of(report) == []


def test_replay_outside_fastpath_dir_not_checked(tmp_path):
    """Only the fast-path package's replay_* functions carry the
    contract; an unrelated helper elsewhere is not subject to it."""
    report = lint(tmp_path, (
        "def replay_something(x):\n"
        "    x.whatever.mutate()\n"
    ), in_fastpath=False)
    assert rules_of(report) == []


# -- RP141: payload-sensitive partition keys ----------------------------------


def test_payload_reading_partition_key_without_declaration(tmp_path):
    report = lint(tmp_path, (
        "class App:\n"
        "    def partition_key(self, pkt):\n"
        "        return pkt.payload[0]\n"
    ))
    assert rules_of(report) == ["RP141"]


def test_payload_reading_partition_key_with_declaration(tmp_path):
    report = lint(tmp_path, (
        "class App:\n"
        "    partition_inputs = \"packet\"\n"
        "    def partition_key(self, pkt):\n"
        "        return pkt.payload[0]\n"
    ))
    assert rules_of(report) == []


def test_flow_only_partition_key_is_clean(tmp_path):
    report = lint(tmp_path, (
        "class App:\n"
        "    def partition_key(self, pkt):\n"
        "        return (pkt.ip.src, pkt.ip.dst)\n"
    ))
    assert rules_of(report) == []


# -- the real tree ------------------------------------------------------------


def test_shipped_tree_is_clean():
    src = os.path.normpath(os.path.join(
        os.path.dirname(__file__), "..", "src", "repro"))
    report = verify_tree([src])
    assert report.diagnostics == []
    assert "3 replay function(s)" in report.analyzed["tree-lint"]
