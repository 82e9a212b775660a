"""The identity oracle (``repro.identity``): one digest formula, fed
from ``Tracer.on_emit`` so it never depends on what the ring retained,
and one axis-by-axis comparison."""

from __future__ import annotations

import pytest

from repro import Simulator, identity
from repro.shard.merge import reference_result
from repro.shard.scenarios import get_scenario
from repro.telemetry.trace import TraceRecord

#: ``nat_quickstart`` under seed 7: 1 359 events, 1 299 records (re-pinned
#: when the scenario's end moved past the lease migration; the formula
#: is unchanged). A change of formula shows up here before it shows up
#: in ``bench``.
QUICKSTART_RECORDS = 1299
QUICKSTART_DIGEST = (
    "51cc170ecbfb72bcdb38183796e2a02b409fdc97c6b2b68ad5794e3cabbe11f6")


def _quickstart(trace_ring=65536, watched=False):
    sim = Simulator(seed=7, trace_ring=trace_ring)
    hasher = identity.watch(sim) if watched else None
    get_scenario("nat_quickstart").fn(sim, lambda until: sim.run(until=until))
    return sim, identity.fingerprint(sim, hasher)


# -- streamed vs retained ------------------------------------------------------


def test_streamed_digest_is_the_unbounded_ring_digest_whatever_the_ring():
    sim, streamed = _quickstart(trace_ring=128, watched=True)
    assert sim.tracer.records_dropped == QUICKSTART_RECORDS - 128
    assert streamed["records_hashed"] == streamed["records_emitted"]
    _sim, retained = _quickstart(trace_ring=None)
    assert retained["records_hashed"] == QUICKSTART_RECORDS
    assert streamed["trace_digest"] == retained["trace_digest"]
    assert all(identity.compare(retained, streamed).values())


def test_post_hoc_fingerprint_of_a_truncated_ring_says_it_is_incomplete():
    """Two equal ring tails are not two equal runs, and the verdict
    says so on its own axis."""
    _sim, first = _quickstart(trace_ring=128)
    _sim, second = _quickstart(trace_ring=128)
    assert first["records_hashed"] == 128 < first["records_emitted"]
    report = identity.compare(first, second)
    assert [axis for axis, ok in report.items() if not ok] == [
        "trace_complete"]


def test_reference_result_keeps_the_parents_digest_on_a_default_ring():
    sim, _ = _quickstart()
    result = reference_result(sim)
    assert result["records_hashed"] == QUICKSTART_RECORDS
    assert result["trace_digest"] == QUICKSTART_DIGEST


def test_watch_refuses_an_occupied_on_emit_slot():
    sim = Simulator(seed=1)
    identity.watch(sim)
    with pytest.raises(RuntimeError, match="single slot"):
        identity.watch(sim)


# -- compare -------------------------------------------------------------------

_RECORDS = (
    (1.0, "packet.send", {"link": "a-b", "uid": 1}),
    (2.5, "packet.deliver", {"link": "a-b", "uid": 1}),
)


def _fingerprint(records=_RECORDS, events=10, counter=7.0, more=()):
    hasher = identity.TraceHasher(
        TraceRecord(ts, type_, dict(fields)) for ts, type_, fields in records)
    metrics = {
        "counters": {"packets_total": counter, **dict(more)},
        "gauges": {"switch.buffer_peak_bytes{sw=agg1}": 240.0},
        "histograms": {},
    }
    return identity.fingerprint_of(events, len(records), hasher, metrics)


_SEND, _DELIVER = _RECORDS


@pytest.mark.parametrize("axis, candidate", [
    ("trace", dict(records=(_SEND, (2.6,) + _DELIVER[1:]))),
    ("trace", dict(records=(_SEND, (2.5, "packet.deliver",
                                    {"uid": 1, "link": "a-b"})))),
    ("events", dict(events=11)),
    ("metrics", dict(counter=8.0)),
], ids=["changed_ts", "swapped_field_order", "extra_event", "metric_value"])
def test_compare_flags_each_axis_alone(axis, candidate):
    report = identity.compare(_fingerprint(), _fingerprint(**candidate))
    assert [name for name, ok in report.items() if not ok] == [axis]


def test_compare_ignores_the_bookkeeping_metric_families():
    candidate = _fingerprint(more={
        "shard.flows_owned": 3.0,
        "fastpath.cache_hits{switch=agg1}": 5.0,
        "observe.heartbeats": 1.0,
    })
    report = identity.compare(_fingerprint(), candidate)
    assert set(report) == {"events", "records_emitted", "trace", "metrics",
                           "trace_complete"}
    assert all(report.values())
    # ...and nothing else is ignored.
    candidate["metrics"]["gauges"]["switch.buffer_peak_bytes{sw=agg1}"] = 1.0
    assert not identity.compare(_fingerprint(), candidate)["metrics"]
