"""Tests for the partition analyzer (repro.verify pass 5, RS4xx)."""

import inspect
import json

import pytest

from repro.apps.counter import AsyncCounterApp
from repro.core.app import AppVerdict
from repro.net.packet import FlowKey
from repro.verify import Severity
from repro.verify.partition_pass import (
    plan_json, render_plan, verify_partition_app,
)
from repro.verify.rules import RULES, Rule, register


def analyze(factory, label=None):
    return verify_partition_app(factory, label=label)


def active_rules(report):
    return sorted(d.rule for d in report.diagnostics)


# -- rule registration --------------------------------------------------------


def test_partition_rules_are_registered():
    for rule_id in ("RS400", "RS401", "RS402", "RS403", "RS404",
                    "RS405", "RS407"):
        assert RULES[rule_id].owner == "partition"
    for rule_id in ("RS400", "RS401", "RS402", "RS403", "RS404"):
        assert RULES[rule_id].severity is Severity.ERROR
    for rule_id in ("RS405", "RS407"):
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


class MetaIndexedCounter(AsyncCounterApp):
    """Indexes its counters by packet metadata, not a header field."""

    def process(self, state, pkt, ctx, switch):
        self.counters.update(ctx, pkt.meta["slot"], 1)  # unclassifiable
        return AppVerdict.FORWARD


class DstKeyedCounter(AsyncCounterApp):
    """Keys flows by destination only, but counts per 5-tuple."""

    def partition_key(self, pkt):
        return FlowKey(pkt.ip.dst, 0, 0, 0, 0)


class SrcBytesCounter(AsyncCounterApp):
    """Keys flows by source, and indexes its counters by the source
    address's bytes: a method call on a computed receiver."""

    def partition_key(self, pkt):
        return FlowKey(pkt.ip.src, 0, 0, 0, 0)

    def process(self, state, pkt, ctx, switch):
        self.counters.update(ctx, (pkt.ip.src + 0).to_bytes(4, "big"), 1)
        return AppVerdict.FORWARD


def line_of(cls, needle):
    lines, start = inspect.getsourcelines(cls)
    return start + next(i for i, text in enumerate(lines) if needle in text)


def test_unclassifiable_index_is_rs400():
    report, plan = analyze(MetaIndexedCounter, label="meta_indexed")
    hits = report.by_rule("RS400")
    assert len(hits) == 1
    assert hits[0].line == line_of(MetaIndexedCounter, "# unclassifiable")
    assert "unresolved inputs: ?" in hits[0].message
    counters = [s for s in plan["structures"] if s.get("attr") == "counters"]
    assert counters[0]["note"] == "unclassifiable index"
    assert counters[0]["partition_class"] == "global"


def test_structure_keyed_outside_the_partition_key_is_rs401():
    report, plan = analyze(DstKeyedCounter, label="dst_keyed")
    hits = report.by_rule("RS401")
    assert len(hits) == 1
    assert "DstKeyedCounter.counters is indexed by {ip.dst, ip.proto, " \
        "ip.src, l4.dport, l4.sport}" in hits[0].message
    assert "partition key derives from {ip.dst}" in hits[0].message
    assert plan["partition_key"]["fields"] == ["ip.dst"]


def test_a_call_on_a_computed_receiver_keeps_the_receivers_fields():
    report, plan = analyze(SrcBytesCounter, label="src_bytes")
    assert active_rules(report) == []
    counters = [s for s in plan["structures"] if s.get("attr") == "counters"]
    assert counters[0]["partition_class"] == "flow_local"
    assert counters[0]["key_fields"] == ["ip.src"]


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
    """shard_plans/ must track the analyzer (a sharded launch refuses a
    drifted plan; this catches the drift before any launch)."""
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
