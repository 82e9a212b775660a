"""The identity contract: a sharded run is byte-identical to the
single-process reference.

This is the committed acceptance gate for the shard subsystem: the NAT
quickstart and a chaos campaign, split across 2 workers, must reproduce
the reference's records, trace ring, and metrics (minus the per-shard
``shard.*`` bookkeeping) exactly — same bytes, not approximately.
"""

from __future__ import annotations

import pytest

from repro.shard.runner import resolve, run_identity, run_sharded


def _assert_identical(out):
    report = out["report"]
    failed = [axis for axis, same in report.items() if not same]
    assert out["identical"], f"diverging axes: {failed} ({report})"


@pytest.mark.parametrize("scenario", ["nat_quickstart", "chaos:single_failover"])
def test_two_shard_run_is_byte_identical(scenario):
    _assert_identical(run_identity(scenario, workers=2))


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
