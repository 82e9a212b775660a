"""Merge-layer units: ghost subtraction, the one-log merge and its
checks (shared divergence, partition, dangling uids, record count),
peak replay, uid renumbering."""

from __future__ import annotations

import pytest

from repro.shard.merge import (
    PEAK_GAUGE_SOURCES,
    UID_FIELDS,
    MergeError,
    _merge_log,
    merge_results,
    summary_results,
)
from repro.shard.recorder import K_BIRTH, K_GAUGE_OP, K_OBSERVATION, K_RECORD


def _counts(events, records, flows, ghost=False):
    return {
        "ghost": ghost,
        "events_executed": events,
        "records_emitted": records,
        "rng_draws": 0,
        "flows_injected": flows,
        "final_now": 100.0,
    }


def test_summary_results_ghost_subtraction():
    """N shards each replay the shared work; the ghost run measures
    exactly that shared part, so sum - (N-1)*ghost is the reference."""
    shards = [_counts(1000, 400, 30), _counts(900, 350, 20)]
    ghost = _counts(500, 200, 0, ghost=True)
    merged = summary_results(shards, ghost)
    assert merged["events"] == 1000 + 900 - 500
    assert merged["records_emitted"] == 400 + 350 - 200
    assert merged["flows_injected"] == 50
    assert merged["num_shards"] == 2
    assert merged["final_now"] == 100.0


def test_summary_results_requires_a_ghost():
    with pytest.raises(MergeError):
        summary_results([_counts(1, 1, 1)], _counts(1, 1, 0))


def test_uid_fields_cover_every_correlation_slot():
    # 'cause' is the ack's originating-request uid — forgetting it left
    # unremapped uids in merged traces once; keep the contract explicit.
    assert {"uid", "parent", "req_uid", "parent_uid", "cause"} <= UID_FIELDS


# -- the one log ---------------------------------------------------------------

SRC = "switch.buffer_occupancy_bytes{switch=agg1}"
PEAK = "switch.buffer_peak_bytes{switch=agg1}"


def _replica(shard, flow_ranks, owned, log, ghost=False):
    """A complete replica result around ``log`` — entries are
    ``(ts, rank, idx, kind, payload)`` — with the counts a consistent
    run would report."""
    return {
        "shard": shard,
        "ghost": ghost,
        "num_shards": 2,
        "rank_count": 3,
        "flow_ranks": sorted(flow_ranks),
        "owned_flow_ranks": sorted(owned),
        "log": [list(entry) for entry in log],
        "events_executed": 10,
        "records_emitted": sum(1 for e in log if e[3] == K_RECORD),
        "rng_draws": 0,
        "flows_injected": len(owned),
        "final_now": 100.0,
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
    }


def _gauge(ts, rank, idx, op, amount):
    return (ts, rank, idx, K_GAUGE_OP, [SRC, op, amount])


def test_peak_replay_reconstructs_the_interleaved_maximum():
    """Each shard alone peaks at 100; interleaved in global time order
    the occupancy stacks to 160 — the reference's peak. A max-over-
    shards merge would report 100 and be wrong."""
    # Ranks 1 and 2 are flow roots owned by shards 0 and 1 respectively.
    s0 = _replica(0, {1, 2}, {1}, [
        _gauge(1.0, 1, 0, "add", 100.0), _gauge(4.0, 1, 1, "add", -100.0),
    ])
    s1 = _replica(1, {1, 2}, {2}, [
        _gauge(2.0, 2, 0, "add", 60.0), _gauge(3.0, 2, 1, "add", -60.0),
    ])
    ghost = _replica(0, {1, 2}, set(), [], ghost=True)
    _records, _uids, peaks, _hists = _merge_log([s0, s1], ghost)
    assert peaks == {PEAK: 160.0}


def test_peak_replay_set_resets_the_level():
    s0 = _replica(0, {1}, {1}, [
        _gauge(1.0, 1, 0, "add", 50.0),
        _gauge(2.0, 1, 1, "set", 10.0),
        _gauge(3.0, 1, 2, "add", 5.0),
    ])
    ghost = _replica(0, {1}, set(), [], ghost=True)
    _records, _uids, peaks, _hists = _merge_log([s0], ghost)
    assert peaks == {PEAK: 50.0}


# One shared-rank entry (rank 0 is not a flow root) of each kind, and
# the same entry as a diverging replica reports it.
_SHARED_DIVERGENCE = {
    "births": ((1.0, 0, 0, K_BIRTH, None), (1.0, 0, 1, K_BIRTH, None)),
    "rows": (
        (1.0, 0, 0, K_RECORD, ["pkt", {"port": 1}]),
        (1.0, 0, 0, K_RECORD, ["pkt", {"port": 2}]),
    ),
    "observations": (
        (1.0, 0, 0, K_OBSERVATION, ["latency_us", 5.0, 64]),
        (1.0, 0, 0, K_OBSERVATION, ["latency_us", 6.0, 64]),
    ),
    "gauge_ops": (_gauge(1.0, 0, 0, "add", 10.0),
                  _gauge(1.0, 0, 0, "add", 999.0)),
}


@pytest.mark.parametrize("culprit", ["shard 1", "ghost"],
                         ids=["shard1", "ghost"])
@pytest.mark.parametrize("key", sorted(_SHARED_DIVERGENCE))
def test_shared_divergence_names_the_stream_and_the_replica(key, culprit):
    """Shared-rank entries of every kind are validated across all
    replicas: a shard or a ghost that disagrees with shard 0 is a
    MergeError naming the replica and showing the first differing
    entry (its kind included), never a merge."""
    good, bad = _SHARED_DIVERGENCE[key]
    shards = [
        _replica(0, {5}, {5}, [good]),
        _replica(1, {5}, set(), [bad if culprit == "shard 1" else good]),
    ]
    ghost = _replica(0, {5}, set(), [bad if culprit == "ghost" else good],
                     ghost=True)
    with pytest.raises(MergeError) as raised:
        merge_results(shards, ghost)
    message = str(raised.value)
    assert f"diverge between shard 0 and {culprit}: index 0: " in message
    assert f"{good!r} != {bad!r}" in message


def _uid_run(shared_uid_on_ghost=1, dangling=None):
    """Shard 0 owns flow rank 1, shard 1 flow rank 2; shared rank 0
    births a packet after both. Each replica numbers that shared birth
    by its own count: 2 on the shards, 1 on the ghost."""

    def birth_and_record(ts, rank, local_uid, **more):
        return [(ts, rank, 0, K_BIRTH, None),
                (ts, rank, 1, K_RECORD, ["pkt", {"uid": local_uid, **more}])]

    s0 = _replica(0, {1, 2}, {1}, birth_and_record(1.0, 1, 1)
                  + birth_and_record(5.0, 0, 2))
    s1 = _replica(1, {1, 2}, {2},
                  birth_and_record(2.0, 2, 1, **(dangling or {}))
                  + birth_and_record(5.0, 0, 2))
    ghost = _replica(0, {1, 2}, set(),
                     birth_and_record(5.0, 0, shared_uid_on_ghost),
                     ghost=True)
    return [s0, s1], ghost


def test_shared_birth_numbered_differently_per_replica_gets_one_global_uid():
    shards, ghost = _uid_run()
    merged = merge_results(shards, ghost)
    assert merged["uids_allocated"] == 3
    assert [(r.ts, r.fields["uid"]) for r in merged["records"]] == [
        (1.0, 1), (2.0, 2), (5.0, 3),
    ]


def test_uid_field_that_references_no_birth_is_refused():
    shards, ghost = _uid_run(dangling={"parent": 9})
    with pytest.raises(MergeError, match=r"shard 1 rank 2: field parent=9 "
                                         r"references a uid never born"):
        merge_results(shards, ghost)
    shards, ghost = _uid_run(shared_uid_on_ghost=2)
    with pytest.raises(MergeError, match=r"ghost rank 0: field uid=2"):
        merge_results(shards, ghost)


def _owned_twice(shards):
    shards[1]["owned_flow_ranks"] = [1, 2]


def _owned_by_nobody(shards):
    shards[1]["owned_flow_ranks"] = []


def _miscounted(shards):
    shards[0]["records_emitted"] += 1


@pytest.mark.parametrize("tamper, message", [
    (_owned_twice, r"flow rank\(s\) \[1\] owned by more than one shard"),
    (_owned_by_nobody, r"flow rank\(s\) \[2\] owned by no shard"),
    (_miscounted, r"merged record count 3 != ghost-subtracted "
                  r"records_emitted 4"),
], ids=["owned_twice", "owned_by_nobody", "record_count"])
def test_inconsistent_replicas_are_refused(tamper, message):
    shards, ghost = _uid_run()
    tamper(shards)
    with pytest.raises(MergeError, match=message):
        merge_results(shards, ghost)


def test_peak_sources_table_names_real_instruments():
    for peak_name, source_name in PEAK_GAUGE_SOURCES.items():
        assert peak_name != source_name
        assert peak_name.startswith("switch.")
