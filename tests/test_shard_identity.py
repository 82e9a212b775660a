"""The identity contract: a sharded run is byte-identical to the
single-process reference.

This is the committed acceptance gate for the shard subsystem: the NAT
quickstart and a chaos campaign, split across 2 workers, must reproduce
the reference's records, trace ring, and metrics (minus the per-shard
``shard.*`` bookkeeping) exactly — same bytes, not approximately.
"""

from __future__ import annotations

import pytest

from repro.chaos import CAMPAIGNS
from repro.shard.merge import MergeError
from repro.shard.runner import (_new_sim, resolve, run_identity,
                                run_one_shard, run_sharded)

#: docs/SHARDING.md "Which chaos campaigns shard": the axes on which each
#: named campaign differs at 2 inline workers (``None``: the merge
#: refuses). Link impairments draw from ``sim.rng``; the WAL campaign's
#: shared ``wal_bytes`` gauge reads differently on the two shards.
CHAOS_SHARDING = {
    "flapping_link": [],
    "lease_race": [],
    "partitioned_store_head": [],
    "rolling_rack_failure": [],
    "single_failover": [],
    "corruption_storm": ["rng_silent"],
    "corruption_storm_store": ["rng_silent"],
    "corruption_sweep": ["rng_silent"],
    "duplicate_storm": ["rng_silent"],
    "gray_link": ["rng_silent"],
    "store_crash_recover_wal": None,
}


def _assert_identical(out):
    report = out["report"]
    failed = [axis for axis, same in report.items() if not same]
    assert out["identical"], f"diverging axes: {failed} ({report})"


@pytest.mark.parametrize("scenario", ["nat_quickstart", "chaos:single_failover"])
def test_two_shard_run_is_byte_identical(scenario):
    _assert_identical(run_identity(scenario, workers=2))


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_chaos_campaigns_shard_as_the_docs_table_says(campaign):
    """Every named campaign runs the recorder's trace sink; one of the
    identical ones also carries ``route.drops`` through the merge."""
    expected = CHAOS_SHARDING[campaign]
    if expected is None:
        with pytest.raises(MergeError):
            run_identity(f"chaos:{campaign}", workers=2)
        return
    out = run_identity(f"chaos:{campaign}", workers=2)
    assert [axis for axis, same in out["report"].items() if not same] \
        == expected
    if campaign == "rolling_rack_failure":
        assert any(name.startswith("route.drops{")
                   for name in out["merged"]["metrics"]["counters"])


@pytest.mark.parametrize("mode", ["inline", "process"])
@pytest.mark.parametrize("scenario", ["quickstart", "nat_quickstart"])
def test_quickstarts_span_failover_and_lease_migration(scenario, mode):
    """The second burst waits at the store until the dead owner's lease
    expires and is served after the migration grant — on both sides of
    the gate, so the diff compares a migration, not only a failover."""
    out = run_identity(scenario, workers=2, mode=mode)
    _assert_identical(out)
    grants = [r for r in out["merged"]["records"] if r.type == "lease.grant"]
    assert [r.fields["migrated"] for r in grants] == [False, True]
    for side in (out["reference"], out["merged"]):
        counters = side["metrics"]["counters"]
        assert counters["store.leases_granted{node=st1}"] == 2
        assert counters["store.requests_buffered{node=st1}"] == 10
        if scenario == "nat_quickstart":
            assert side["extra"]["translated"] == 20
        else:
            assert sum(v for k, v in counters.items() if k.startswith(
                "redplane.piggybacks_released")) == 20


def test_two_shard_nat_steady_splits_flows_and_stays_identical():
    """nat_steady is the only-real-multi-shard case in the gate: its 12
    flows hash onto both workers, so the merge actually interleaves."""
    out = run_identity("nat_steady", workers=2)
    _assert_identical(out)
    flows = out["merged"]["flows_per_shard"]
    assert len(flows) == 2 and all(f > 0 for f in flows), flows


def test_four_shard_nat_steady_is_byte_identical():
    out = run_identity("nat_steady", workers=4)
    _assert_identical(out)
    assert len(out["merged"]["flows_per_shard"]) == 4


def test_quickstart_two_shards_identical_with_fastpath():
    _assert_identical(run_identity("quickstart", workers=2, fastpath=True))


def test_merged_extras_are_ghost_subtracted():
    """Scenario return values come back as reference totals, not
    shard-0-local counts."""
    config = resolve("nat_steady", 2)
    merged = run_sharded(config)
    # 12 flows x 40 packets, all translated in steady state.
    assert merged["extra"]["flows"] == 12
    assert merged["extra"]["packets"] == 480


def test_identity_requires_rng_silence():
    out = run_identity("nat_quickstart", workers=2)
    assert out["report"]["rng_silent"]
    assert out["merged"]["rng_draws"] == 0


# -- no ring ---------------------------------------------------------------------

def _emitted_and_built(records_built, capture):
    """``(records emitted, TraceRecords built)`` by nat_steady's shard 0."""
    result = run_one_shard(resolve("nat_steady", 2, capture=capture), 0)
    return result["records_emitted"], records_built[0]


def test_a_capture_off_shard_counts_its_records_without_building_them(
        records_built):
    """Nothing reads a shard's ring, so there is none; with no recorder
    sink an emit only counts."""
    assert _emitted_and_built(records_built, capture=False) == (4680, 0)


def test_a_capture_on_shard_builds_every_record_for_its_recorder(
        records_built):
    assert _emitted_and_built(records_built, capture=True) == (4680, 4680)


def test_the_shard_runner_builds_simulators_without_a_ring():
    sim = _new_sim(resolve("nat_quickstart", 2))
    sim.tracer.emit("tick", i=1)
    assert sim.tracer.maxlen == 0
    assert len(sim.tracer) == 0 and sim.tracer.tail() == []
    assert sim.tracer.records_dropped == sim.tracer.records_emitted == 1


@pytest.mark.parametrize("mode", ["inline", "process"])
def test_ringless_reference_and_shards_stay_identical_and_complete(mode):
    """The reference is hashed from a sink and the shards merged from
    their recorders' logs, so dropping the rings loses nothing."""
    out = run_identity("nat_quickstart", workers=2, mode=mode)
    _assert_identical(out)
    assert out["report"]["trace_complete"]
    for side in (out["reference"], out["merged"]):
        assert side["records_hashed"] == side["records_emitted"] > 0
