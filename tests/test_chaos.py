"""Tests for the chaos engine: campaigns, verdict reports, determinism,
and the CLI entry point."""

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

#: sha256(verdict_json(report))[:16] of every named campaign at seed 42.
#: A verdict is a pure function of (campaign data, seed): these move only
#: when the protocol, a campaign or the report format is changed on purpose.
VERDICT_SHA16 = {
    "corruption_storm": "80b9c0eaad7c44b3",
    "corruption_storm_store": "0daf1d3e1140a642",
    "corruption_sweep": "237d14ad35c55c6e",
    "duplicate_storm": "f1de8adb40b78d27",
    "flapping_link": "0fc05a59f5215e13",
    "gray_link": "a3024e3d9bd5e115",
    "lease_race": "761193ce893bc4bb",
    "partitioned_store_head": "13e8f7a983f1190b",
    "rolling_rack_failure": "c339c0805d52b512",
    "single_failover": "ffe85fad75e6da61",
    "store_crash_recover_wal": "4852aea9680f3f36",
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


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_every_campaign_passes_with_zero_violations(name):
    """The acceptance bar: all shipped campaigns end PASS — invariants
    held on every sample and the delivered history linearizable."""
    report = run_campaign(name, seed=42)
    assert report["verdict"] == "PASS"
    assert report["invariants"]["held"]
    assert report["invariants"]["violations"] == []
    assert report["invariants"]["samples"] > 0
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
