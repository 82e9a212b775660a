"""Merge-layer units: ghost subtraction, peak replay, uid remapping."""

from __future__ import annotations

import pytest

from repro.shard.merge import (
    PEAK_GAUGE_SOURCES,
    UID_FIELDS,
    MergeError,
    _merge_births,
    _merge_histograms,
    _merge_rows,
    _replay_peak_gauges,
    strip_non_identity,
    summary_results,
)


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


def test_strip_non_identity_drops_bookkeeping_families():
    snap = {
        "counters": {
            "packets_total": 7.0,
            "shard.flows_owned": 3.0,
            "fastpath.hits": 5.0,
            "observe.heartbeats": 1.0,
        },
        "gauges": {"switch.buffer_peak_bytes{sw=agg1}": 240.0},
        "histograms": {},
    }
    stripped = strip_non_identity(snap)
    assert set(stripped["counters"]) == {"packets_total"}
    assert "switch.buffer_peak_bytes{sw=agg1}" in stripped["gauges"]


# -- peak-gauge replay ---------------------------------------------------------

SRC = "switch.buffer_occupancy_bytes{switch=agg1}"
PEAK = "switch.buffer_peak_bytes{switch=agg1}"


def _shard(shard, flow_ranks, owned, ops):
    return {
        "shard": shard,
        "flow_ranks": list(flow_ranks),
        "owned_flow_ranks": list(owned),
        "gauge_ops": [list(o) for o in ops],
    }


def test_peak_replay_reconstructs_the_interleaved_maximum():
    """Each shard alone peaks at 100; interleaved in global time order
    the occupancy stacks to 160 — the reference's peak. A max-over-
    shards merge would report 100 and be wrong."""
    # (describe, ts, rank, op_idx, op, amount); ranks 1 and 2 are flow
    # roots owned by shards 0 and 1 respectively.
    s0 = _shard(0, {1, 2}, {1}, [
        (SRC, 1.0, 1, 0, "add", 100.0),
        (SRC, 4.0, 1, 1, "add", -100.0),
    ])
    s1 = _shard(1, {1, 2}, {2}, [
        (SRC, 2.0, 2, 0, "add", 60.0),
        (SRC, 3.0, 2, 1, "add", -60.0),
    ])
    ghost = _shard(0, {1, 2}, set(), [])
    ghost["ghost"] = True
    peaks = _replay_peak_gauges([s0, s1], ghost)
    assert peaks == {PEAK: 160.0}


def test_peak_replay_set_resets_the_level():
    s0 = _shard(0, {1}, {1}, [
        (SRC, 1.0, 1, 0, "add", 50.0),
        (SRC, 2.0, 1, 1, "set", 10.0),
        (SRC, 3.0, 1, 2, "add", 5.0),
    ])
    ghost = _shard(0, {1}, set(), [])
    ghost["ghost"] = True
    peaks = _replay_peak_gauges([s0], ghost)
    assert peaks == {PEAK: 50.0}


# One shared-rank entry (rank 0 is not a flow root) per merged stream,
# and the same entry as a diverging replica reports it.
_SHARED_DIVERGENCE = {
    "births": (
        "uid births", (1.0, 0, 0), (1.0, 0, 1),
        _merge_births,
    ),
    "rows": (
        "trace records",
        (1.0, 0, 0, "pkt", {"port": 1}), (1.0, 0, 0, "pkt", {"port": 2}),
        lambda shards, ghost: _merge_rows(shards, ghost, [{}, {}], {}),
    ),
    "observations": (
        "histogram observations",
        ("latency_us", 1.0, 0, 0, 5.0, 64), ("latency_us", 1.0, 0, 0, 6.0, 64),
        _merge_histograms,
    ),
    "gauge_ops": (
        "gauge operations",
        (SRC, 1.0, 0, 0, "add", 10.0), (SRC, 1.0, 0, 0, "add", 999.0),
        _replay_peak_gauges,
    ),
}


@pytest.mark.parametrize("culprit", ["shard 1", "ghost"],
                         ids=["shard1", "ghost"])
@pytest.mark.parametrize("key", sorted(_SHARED_DIVERGENCE))
def test_shared_divergence_names_the_stream_and_the_replica(key, culprit):
    """Every merged log validates its shared-rank entries across all
    replicas: a shard or a ghost that disagrees with shard 0 is a
    MergeError saying which stream and which replica, never a merge."""
    stream, good, bad, merge = _SHARED_DIVERGENCE[key]

    def replica(shard, owned, entry):
        res = _shard(shard, {5}, owned, [])
        res[key] = [list(entry)]
        return res

    shards = [
        replica(0, {5}, good),
        replica(1, set(), bad if culprit == "shard 1" else good),
    ]
    ghost = replica(0, set(), bad if culprit == "ghost" else good)
    ghost["ghost"] = True
    with pytest.raises(
        MergeError, match=rf"shared {stream} diverge.*shard 0 and {culprit}:"
    ):
        merge(shards, ghost)


def test_peak_sources_table_names_real_instruments():
    for peak_name, source_name in PEAK_GAUGE_SOURCES.items():
        assert peak_name != source_name
        assert peak_name.startswith("switch.")
