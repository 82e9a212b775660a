"""Tests for the partition analyzer (repro.verify pass 5, RS4xx)."""

import json

import pytest

from repro.verify import Report, Severity, SuppressionIndex
from repro.verify.cli import baseline_regressions, rule_counts
from repro.verify.partition_pass import (
    plan_json, render_plan, verify_partition_app, verify_shard_hazards,
)
from repro.verify.rules import RULES, Rule, register
from repro.verify.diagnostics import Diagnostic


def analyze(factory, label=None):
    return verify_partition_app(factory, label=label)


def active_rules(report):
    return sorted(d.rule for d in report.active())


# -- rule registration --------------------------------------------------------


def test_partition_rules_are_registered():
    for rule_id in ("RS400", "RS401", "RS402", "RS403", "RS404",
                    "RS405", "RS406", "RS407", "RS408",
                    "RS410", "RS411", "RS412"):
        assert RULES[rule_id].owner == "partition"
    for rule_id in ("RS400", "RS401", "RS402", "RS403", "RS404",
                    "RS406", "RS408"):
        assert RULES[rule_id].severity is Severity.ERROR
    for rule_id in ("RS405", "RS407", "RS410", "RS411", "RS412"):
        assert RULES[rule_id].severity is Severity.WARNING


def test_duplicate_rule_id_rejected_at_registration():
    dup = [
        Rule("RX900", "first", Severity.ERROR, "test", "m"),
        Rule("RX900", "second", Severity.ERROR, "test", "m"),
    ]
    with pytest.raises(ValueError, match="duplicate rule id 'RX900'"):
        register(dup)


# -- the three partition classes ----------------------------------------------


def test_nat_is_flow_local():
    from repro.apps.nat import NatApp

    report, plan = analyze(lambda: NatApp(), label="nat")
    assert active_rules(report) == []
    assert plan["partition_class"] == "flow_local"
    assert plan["partition_key"]["class"] == "flow_local"
    assert plan["partition_key"]["fields"] == [
        "ip.dst", "ip.proto", "ip.src", "l4.dport", "l4.sport",
    ]
    assert plan["global_residue"] == []


def test_kv_store_is_flow_hash_over_payload():
    from repro.apps import BUILTIN_APPS

    report, plan = analyze(BUILTIN_APPS["kv_store"], label="kv_store")
    assert active_rules(report) == []
    assert plan["partition_class"] == "flow_hash"
    assert plan["partition_key"]["fields"] == ["payload"]


def test_heavy_hitter_is_declared_global_with_reason():
    from repro.apps import BUILTIN_APPS

    report, plan = analyze(BUILTIN_APPS["heavy_hitter"], label="heavy_hitter")
    assert active_rules(report) == []
    assert plan["partition_class"] == "global"
    assert plan["declared"]["shard_class"] == "global"
    assert plan["declared"]["shard_reason"]
    # The sketch rows are the global residue.
    assert plan["global_residue"]
    sketch_rows = [
        s for s in plan["structures"] if s["kind"] == "snapshot_array"
    ]
    assert sketch_rows
    assert all(s["partition_class"] == "global" for s in sketch_rows)


def test_plan_commits_to_state_classification_and_nothing_else():
    """Every key is either read by ``repro.shard`` at launch or is the
    analysis RS408 pins; nothing describes a topology partition the
    runtime does not have."""
    from repro.apps.nat import NatApp

    _, plan = analyze(lambda: NatApp(), label="nat")
    assert plan["format"] == 3
    assert set(plan) == {
        "format", "app", "app_class", "partition_class", "declared",
        "partition_key", "structures", "global_residue",
    }


# -- declaration lattice violations -------------------------------------------


def test_declared_class_tighter_than_inferred_is_rs402():
    from repro.apps.kv_store import KvStoreApp

    class TightKv(KvStoreApp):
        shard_class = "flow_local"

    report, plan = analyze(lambda: TightKv(), label="tight_kv")
    assert "RS402" in active_rules(report)
    # The plan still records the honest (inferred) class.
    assert plan["partition_class"] == "flow_hash"


def test_global_declaration_without_reason_is_rs403():
    from repro.apps.sequencer import SequencerApp

    class Unjustified(SequencerApp):
        shard_reason = None

    report, _ = analyze(lambda: Unjustified(), label="unjustified")
    assert "RS403" in active_rules(report)


def test_unknown_shard_class_is_rs404():
    from repro.apps.nat import NatApp

    class Bogus(NatApp):
        shard_class = "per_rack"

    report, _ = analyze(lambda: Bogus(), label="bogus")
    assert "RS404" in active_rules(report)


def test_inferred_global_without_declaration_is_rs405():
    from repro.apps.superspreader import SuperSpreaderApp

    class Undeclared(SuperSpreaderApp):
        shard_class = None
        shard_reason = None

    report, plan = analyze(lambda: Undeclared(), label="undeclared")
    assert "RS405" in active_rules(report)
    assert plan["partition_class"] == "global"


def test_unanalyzable_partition_key_is_rs407():
    from repro.apps.nat import NatApp

    class Opaque(NatApp):
        pass

    Opaque.partition_key = lambda self, pkt: None

    report, plan = analyze(lambda: Opaque(), label="opaque")
    assert "RS407" in active_rules(report)
    assert plan["partition_key"]["class"] == "unknown"


# -- the shard plan artifact --------------------------------------------------


def test_plan_json_is_byte_deterministic_across_runs():
    from repro.apps import BUILTIN_APPS

    for name in ("nat", "heavy_hitter", "kv_store"):
        _, p1 = analyze(BUILTIN_APPS[name], label=name)
        _, p2 = analyze(BUILTIN_APPS[name], label=name)
        assert plan_json(p1) == plan_json(p2)


def test_plan_json_is_canonical_json():
    from repro.apps.nat import NatApp

    _, plan = analyze(lambda: NatApp(), label="nat")
    text = plan_json(plan)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["format"] == 3
    assert doc["app"] == "nat"
    roundtrip = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert roundtrip == text


def test_render_plan_mentions_key_and_residue():
    from repro.apps.nat import NatApp

    _, plan = analyze(lambda: NatApp(), label="nat")
    text = render_plan(plan)
    assert "partition_class=flow_local" in text
    assert "key: class=flow_local" in text
    assert text.endswith("global residue: 0 structure(s)")


def test_committed_plans_match_fresh_analysis():
    """RS408's ground truth: shard_plans/ must track the analyzer."""
    import os

    from repro.apps import BUILTIN_APPS
    from repro.verify.cli import shard_plan_dir

    plan_dir = shard_plan_dir()
    if not os.path.isdir(plan_dir):
        pytest.skip("no committed shard_plans/ directory")
    for name in sorted(BUILTIN_APPS):
        _, plan = analyze(BUILTIN_APPS[name], label=name)
        path = os.path.join(plan_dir, f"{name}.json")
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == plan_json(plan), f"stale plan for {name}"


# -- conformance over the builtin registry ------------------------------------


EXPECTED_CLASSES = {
    "async_counter": "flow_hash",
    "epc_sgw": "flow_hash",
    "firewall": "flow_local",
    "heavy_hitter": "global",
    "kv_store": "flow_hash",
    "load_balancer": "flow_local",
    "nat": "flow_local",
    "sequencer": "global",
    "superspreader": "global",
    "syn_defense": "flow_local",
    "sync_counter": "flow_local",
}


def test_every_builtin_app_classifies_cleanly():
    from repro.apps import BUILTIN_APPS

    assert sorted(BUILTIN_APPS) == sorted(EXPECTED_CLASSES)
    for name in sorted(BUILTIN_APPS):
        report, plan = analyze(BUILTIN_APPS[name], label=name)
        assert active_rules(report) == [], f"{name}: {active_rules(report)}"
        assert plan["partition_class"] == EXPECTED_CLASSES[name], name


# -- RS406: cache-entry partition classes -------------------------------------


def test_entry_kind_without_partition_class_is_rs406(monkeypatch):
    from repro.fastpath import flowcache

    bad = dict(flowcache.ENTRY_DEPS)
    bad["evil"] = flowcache.EntryDep(frozenset({"table"}), "per_rack")
    monkeypatch.setattr(flowcache, "ENTRY_DEPS", bad)
    report = verify_shard_hazards([])
    assert "RS406" in active_rules(report)


def test_real_entry_deps_pass_rs406():
    report = verify_shard_hazards([])
    assert active_rules(report) == []


# -- RS410/411/412: Python-level shard hazards --------------------------------


def lint(tmp_path, source, name="fixture.py"):
    path = tmp_path / name
    path.write_text(source)
    supp = SuppressionIndex()
    report = verify_shard_hazards([str(path)], suppressions=supp)
    report.finalize_suppressions(supp, rules=("RS",))
    return report


def test_mutable_module_global_is_rs410(tmp_path):
    report = lint(tmp_path, (
        "PENDING = []\n"
        "def enqueue(x):\n"
        "    PENDING.append(x)\n"
    ))
    assert "RS410" in active_rules(report)


def test_global_statement_is_rs410(tmp_path):
    report = lint(tmp_path, (
        "counter = 0\n"
        "def bump():\n"
        "    global counter\n"
        "    counter += 1\n"
    ))
    assert "RS410" in active_rules(report)


def test_constant_module_global_is_clean(tmp_path):
    report = lint(tmp_path, (
        "LIMIT = 64\n"
        "NAMES = (\"a\", \"b\")\n"
    ))
    assert active_rules(report) == []


def test_lambda_on_instance_is_rs411(tmp_path):
    report = lint(tmp_path, (
        "class Widget:\n"
        "    def __init__(self):\n"
        "        self.scorer = lambda x: x + 1\n"
    ))
    assert "RS411" in active_rules(report)


def test_order_sensitive_first_pick_is_rs412(tmp_path):
    report = lint(tmp_path, (
        "def first_owner(owners):\n"
        "    return next(iter({o.lower() for o in owners}))\n"
    ))
    assert "RS412" in active_rules(report)


def test_next_iter_over_sorted_is_clean(tmp_path):
    report = lint(tmp_path, (
        "def first_owner(owners):\n"
        "    return next(iter(sorted(owners)))\n"
    ))
    assert active_rules(report) == []


def test_hazard_suppression_with_justification(tmp_path):
    report = lint(tmp_path, (
        "PENDING = []  # repro: noqa[RS410] -- drained per test\n"
    ))
    assert active_rules(report) == []
    assert [d.rule for d in report.diagnostics if d.suppressed] == ["RS410"]


def test_repro_tree_is_hazard_clean():
    import os

    from repro.verify.cli import source_root

    tree = os.path.join(source_root(), "repro")
    report = verify_shard_hazards([tree])
    assert active_rules(report) == []


# -- baseline comparison ------------------------------------------------------


def test_baseline_regressions_only_flags_increases():
    report = Report()
    for _ in range(3):
        report.add(Diagnostic("RS410", Severity.WARNING, "m", "f.py", 1))
    report.add(Diagnostic("RS412", Severity.WARNING, "m", "f.py", 2))
    counts = rule_counts(report)
    assert counts == {"RS410": 3, "RS412": 1}
    # At or below baseline: no regression, even with an extinct rule.
    assert baseline_regressions(
        counts, {"RS410": 3, "RS412": 2, "RD201": 5}
    ) == {}
    # Above baseline, or brand new: regression.
    regs = baseline_regressions(counts, {"RS410": 2})
    assert regs == {
        "RS410": {"count": 3, "baseline": 2},
        "RS412": {"count": 1, "baseline": 0},
    }
