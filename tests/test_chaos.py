"""Tests for the chaos engine: campaigns, verdict reports, determinism,
and the CLI entry point."""

import dataclasses
import hashlib
import json

import pytest

from repro import Simulator, deploy
from repro.chaos import (
    CAMPAIGNS, Campaign, run_campaign, run_campaign_result, verdict_json,
)
from repro.chaos import campaigns as topo
from repro.chaos.fuzz import run_spec
from repro.chaos.workload import EchoCounterApp
from repro.fastpath import FastPath
from repro.tools.runner import main as tools_main
from repro.workloads.failures import FaultSpec

#: sha256(verdict_json(report))[:16] of every named campaign at seed 42.
#: A verdict is a pure function of (campaign data, seed): these move only
#: when the protocol, a campaign or the report format is changed on purpose.
VERDICT_SHA16 = {
    "corruption_storm": "10164b823f006bd4",
    "corruption_storm_store": "202a7c634df81184",
    "corruption_sweep": "be8d42a1b9cd42e6",
    "duplicate_storm": "7f0f3a4eebd716d9",
    "flapping_link": "1bc1a7384595c92e",
    "gray_link": "53314c617c066939",
    "lease_race": "22486b20a235a147",
    "partitioned_store_head": "2a363e647ea0f6b8",
    "rolling_rack_failure": "858b57913b08ec9b",
    "single_failover": "eea4d171e85073bb",
    "store_crash_recover_wal": "f220bffa118a8e8e",
}


def test_campaign_inventory_is_complete():
    assert len(CAMPAIGNS) >= 11
    assert {
        "single_failover", "flapping_link", "gray_link",
        "partitioned_store_head", "rolling_rack_failure", "lease_race",
        "duplicate_storm", "corruption_sweep", "store_crash_recover_wal",
        "corruption_storm", "corruption_storm_store",
    } <= set(CAMPAIGNS)
    for name, campaign in CAMPAIGNS.items():
        assert campaign.name == name
        assert campaign.description
        assert campaign.faults
        assert campaign.sim_seed == 42


def test_topology_indices_name_the_links_and_stores_they_say():
    dep = deploy(Simulator(seed=1), EchoCounterApp)
    names = [link.name for link in dep.bed.topology.links]
    assert dep.bed.fabric == [dep.bed.topology.links[i]
                              for i in topo.FABRIC_LINKS]
    assert names[topo.AGG1_TOR1] == "agg1<->tor1"
    assert names[topo.TOR1_ST1] == "tor1<->st1"
    assert [names[i] for i in topo.CORE_AGG_LINKS] == [
        "core1<->agg1", "core1<->agg2", "core2<->agg1", "core2<->agg2"]
    hosts = {"s11", "s12", "s21", "s22", "e1", "e2", "e3", "e4",
             "st1", "st2", "st3"}
    assert all(not hosts & set(names[i].split("<->"))
               for i in topo.FABRIC_LINKS)
    for position, store in enumerate(dep.stores):
        assert store.name == topo.STORE_NODE[position]
        assert store.name in names[topo.STORE_LINK[position]].split("<->")


def test_every_campaign_round_trips_through_json():
    for campaign in CAMPAIGNS.values():
        again = Campaign.from_dict(json.loads(json.dumps(campaign.to_dict())))
        assert again == campaign
    # ... and the copy is the same experiment, not just an equal record.
    copy = Campaign.from_dict(CAMPAIGNS["lease_race"].to_dict())
    digest = hashlib.sha256(verdict_json(run_spec(copy).report).encode())
    assert digest.hexdigest()[:16] == VERDICT_SHA16["lease_race"]


def test_campaign_file_with_a_misspelt_or_missing_field_is_refused():
    from repro.workloads.failures import ScheduleError

    d = CAMPAIGNS["lease_race"].to_dict()
    with pytest.raises(ScheduleError, match="lease_us"):
        Campaign.from_dict({**d, "lease_us": 1.0})
    del d["packets"]
    with pytest.raises(ScheduleError, match="packets"):
        Campaign.from_dict(d)


def _last_seq(node, key):
    rec = node.records.get(key)
    return rec.last_seq if rec is not None else 0


def assert_replicas_are_prefixes(dep):
    """Along each shard's live chain (wired from the shard map's head),
    every replica's ``last_seq`` for every key is at most its
    predecessor's: a replica's history is a prefix of the one before it.
    Equality once quiet is not promised: an update stranded by a splice
    waits for its switch's retransmission, which a dead switch never
    sends."""
    by_ip = {store.ip: store for store in dep.stores}
    for shard in dep.shard_map.addresses():
        chain, node = [], by_ip.get(shard.ip)
        while node is not None:
            chain.append(node)
            node = by_ip.get(node.successor_ip)
        live = [node for node in chain if not node.failed]
        keys = {key for node in live for key in node.records}
        for upstream, downstream in zip(live, live[1:]):
            for key in keys:
                assert _last_seq(downstream, key) <= _last_seq(upstream, key)


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_every_campaign_passes_with_zero_violations(name):
    """The acceptance bar: all shipped campaigns end PASS — invariants
    held at every lease install and record write, the delivered history
    linearizable, and every replica's history a prefix of its
    predecessor's."""
    result = run_campaign_result(CAMPAIGNS[name], seed=42)
    dep = result.workload.deployment
    assert_replicas_are_prefixes(dep)
    report = result.report
    assert report["verdict"] == "PASS"
    assert report["invariants"]["held"]
    assert report["invariants"]["violations"] == []
    # Every store and engine reports to the run's monitor.
    assert all(node.monitor is result.monitor
               for node in [*dep.stores, *dep.engines.values()])
    assert report["linearizable"]
    assert report["traffic"]["delivered"] > 0
    # The sync counter must never hand two packets the same state value.
    assert report["traffic"]["duplicate_values"] == 0
    assert report["faults"], "a chaos campaign with no faults is a no-op"
    digest = hashlib.sha256(verdict_json(report).encode()).hexdigest()
    assert digest[:16] == VERDICT_SHA16[name]


def test_same_seed_runs_are_byte_identical():
    first = verdict_json(run_campaign("gray_link", seed=42))
    second = verdict_json(run_campaign("gray_link", seed=42))
    assert first == second


def test_different_seed_changes_outcome_not_verdict():
    report = run_campaign("gray_link", seed=7)
    assert report["seed"] == 7
    assert report["verdict"] == "PASS"


def test_report_shape():
    report = run_campaign("single_failover", seed=42)
    assert report["schema"] == 1
    for key in ("campaign", "seed", "faults", "traffic", "invariants",
                "linearizable", "recovery_latency_us", "counters",
                "verdict"):
        assert key in report
    for fault in report["faults"]:
        assert set(fault) == {"time_us", "kind", "target", "detail"}
    recovery = report["recovery_latency_us"]
    assert recovery["events"] >= 1
    assert recovery["p50_us"] <= recovery["p99_us"] <= recovery["max_us"]
    # Round-trips through JSON without custom encoders.
    json.loads(verdict_json(report))


def test_faults_exercise_their_machinery():
    """Each campaign's signature counter actually moved."""
    storm = run_campaign("duplicate_storm", seed=42)
    assert storm["counters"]["link_frames_duplicated"] > 0
    assert (storm["counters"]["store_stale_rejections"]
            + storm["counters"]["stale_acks_ignored"]) > 0

    partition = run_campaign("partitioned_store_head", seed=42)
    assert partition["counters"]["link_drops_partition"] > 0
    assert partition["counters"]["retransmissions"] > 0

    rack = run_campaign("rolling_rack_failure", seed=42)
    assert rack["counters"]["chain_reconfigurations"] >= 1

    sweep = run_campaign("corruption_sweep", seed=42)
    assert sweep["counters"]["link_drops_corrupt"] > 0


def test_unknown_campaign_raises():
    with pytest.raises(KeyError, match="unknown campaign"):
        run_campaign("no-such-campaign")


def test_cli_list(capsys):
    assert tools_main(["chaos", "--list"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) >= 8
    assert "gray_link" in out


def test_cli_run_writes_report_and_checks_determinism(tmp_path, capsys):
    out_path = tmp_path / "verdict.json"
    code = tools_main(["chaos", "lease_race", "--json",
                       "--out", str(out_path), "--check-determinism"])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["campaign"] == "lease_race"
    assert report["verdict"] == "PASS"
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize("name", sorted(VERDICT_SHA16))
def test_campaign_verdict_identical_with_fastpath(name):
    """The flow cache must be invisible to chaos auditing: every named
    campaign run with a :class:`FastPath` installed produces the
    verdict report pinned for the reference run, byte for byte."""
    def with_cache(seed):
        sim = Simulator(seed=seed)
        FastPath.install(sim)
        return sim

    result = run_campaign_result(CAMPAIGNS[name], seed=42,
                                 sim_factory=with_cache)
    assert result.monitor.sim.fastpath.stats()["flow_cache"]["hits"] > 0
    digest = hashlib.sha256(verdict_json(result.report).encode()).hexdigest()
    assert digest[:16] == VERDICT_SHA16[name]


@pytest.mark.parametrize("jitter_us, from_node, violated", [
    (8_000.0, "st1", set()),
    (20_000.0, "st1", {"LeaseAgreement"}),
    (20_000.0, "tor1", set()),
], ids=["8ms_from_st1", "20ms_from_st1", "20ms_from_tor1"])
def test_lease_agreement_holds_while_grants_arrive_within_the_margin(
        jitter_us, from_node, violated):
    """The switch counts its lease from the grant's arrival, so it
    believes in the lease past the store's grant once the store->switch
    delay exceeds ``LEASE_MARGIN_US`` (10 ms): docs/PROTOCOL.md,
    "Message flows". ``duplicate_storm`` with its impairment replaced by
    one-way jitter on tor1<->st1 from 100 ms to 400 ms."""
    campaign = dataclasses.replace(CAMPAIGNS["duplicate_storm"], faults=(
        FaultSpec.make("impair_link", 100_000.0, link=topo.TOR1_ST1,
                       jitter_us=jitter_us, from_node=from_node),
        FaultSpec.make("clear_link", 400_000.0, link=topo.TOR1_ST1),
    ))
    result = run_campaign_result(campaign, seed=42)
    assert {v.invariant for v in result.monitor.violations} == violated
    assert result.report["verdict"] == ("FAIL" if violated else "PASS")
    assert result.report["linearizable"]
