"""The identity oracle (``repro.identity``): one digest formula, fed
from a sink in ``Tracer.sinks`` so it never depends on what the ring
retained, and one axis-by-axis comparison."""

from __future__ import annotations

import pytest

from repro import Simulator, identity
from repro.shard.merge import reference_result
from repro.shard.recorder import K_RECORD, ShardRecorder
from repro.scenarios import SCENARIOS
from repro.telemetry.trace import TraceRecord

#: ``nat_quickstart`` under seed 7: 1 223 events, 1 163 records (re-pinned
#: when the scenario's end moved past the lease migration, and again when
#: the store stopped acking chain updates hop by hop; the formula is
#: unchanged). A change of formula shows up here before it shows up in
#: ``bench``.
QUICKSTART_RECORDS = 1163
QUICKSTART_DIGEST = (
    "309e67b4ab098c1057346f1884aacc974039384a5df8939c79531f787cd413be")


def _quickstart(trace_ring=65536, watched=False):
    sim = Simulator(seed=7, trace_ring=trace_ring)
    hasher = identity.watch(sim) if watched else None
    SCENARIOS["nat_quickstart"].run(sim)
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


def test_a_run_with_no_ring_and_no_hasher_cannot_be_fingerprinted():
    """A zero-record digest would pass for a fingerprint, flagged only
    by ``trace_complete``; refusing names the mistake instead."""
    with pytest.raises(ValueError, match="no ring and no hasher"):
        _quickstart(trace_ring=0)


def test_a_watched_run_with_no_ring_fingerprints_as_with_the_default_ring():
    _sim, ringless = _quickstart(trace_ring=0, watched=True)
    _sim, ringed = _quickstart(watched=True)
    assert ringless == ringed
    assert all(identity.compare(ringed, ringless).values())
    assert ringless["records_hashed"] == QUICKSTART_RECORDS
    assert ringless["trace_digest"] == QUICKSTART_DIGEST


def test_reference_result_keeps_the_parents_digest_on_a_default_ring():
    sim, _ = _quickstart()
    result = reference_result(sim)
    assert result["records_hashed"] == QUICKSTART_RECORDS
    assert result["trace_digest"] == QUICKSTART_DIGEST


def test_watch_and_a_shard_recorder_both_see_every_record():
    """The recorder joins the sinks first; the hasher joins after it
    and still hashes every record the recorder logs."""
    sim = Simulator(seed=7)
    recorder = ShardRecorder(0, 1, ["ip.src", "ip.dst"])
    recorder.attach(sim, seed=7)
    hasher = identity.watch(sim)
    SCENARIOS["nat_quickstart"].run(sim)
    logged = sum(1 for entry in recorder.log if entry[3] == K_RECORD)
    assert hasher.records_hashed == sim.tracer.records_emitted == logged
    assert logged == QUICKSTART_RECORDS
    assert hasher.hexdigest() == QUICKSTART_DIGEST


def test_two_watchers_on_one_run_give_equal_digests():
    sim = Simulator(seed=7)
    first, second = identity.watch(sim), identity.watch(sim)
    SCENARIOS["nat_quickstart"].run(sim)
    assert first.records_hashed == second.records_hashed == QUICKSTART_RECORDS
    assert first.hexdigest() == second.hexdigest() == QUICKSTART_DIGEST


# -- compare -------------------------------------------------------------------

_RECORDS = (
    (1.0, "packet.send", {"link": "a-b", "uid": 1}),
    (2.5, "packet.deliver", {"link": "a-b", "uid": 1}),
)


def _fingerprint(records=_RECORDS, events=10, counter=7.0, more=()):
    hasher = identity.TraceHasher(
        TraceRecord.from_fields(ts, type_, dict(fields))
        for ts, type_, fields in records)
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
    candidate = _fingerprint(more={"shard.flows_owned": 3.0})
    report = identity.compare(_fingerprint(), candidate)
    assert set(report) == {"events", "records_emitted", "trace", "metrics",
                           "trace_complete"}
    assert all(report.values())
    # ...and nothing else is ignored.
    candidate["metrics"]["gauges"]["switch.buffer_peak_bytes{sw=agg1}"] = 1.0
    assert not identity.compare(_fingerprint(), candidate)["metrics"]


# -- the record template ---------------------------------------------------------

_SEVEN = ("link", "dir", "bytes", "uid", "kind", "flow", "parent")

#: Record shapes and values the per-shape template must render exactly
#: as ``repr`` does: 0, 1 and 7 fields, ``%`` in a type, a key and a
#: value, tuple, ``None`` and ``bool`` values, and the floats whose repr
#: is not their plain digits.
_FORMULA_RECORDS = (
    TraceRecord(0.0, "empty", (), ()),
    TraceRecord(1.5, "one", ("uid",), (7,)),
    TraceRecord(2.0, "one", ("uid",), ((1, "a"),)),
    TraceRecord(-0.0, "seven", _SEVEN,
                ("s1->agg1", None, True, False, (3, 4), -0.0, 1e-07)),
    TraceRecord(1e-07, "seven", _SEVEN,
                (float("inf"), float("-inf"), float("nan"), "", 0, 1.0, ())),
    TraceRecord(3.0, "100%s", ("pct%", "%d"), ("50%", "%r%%")),
    TraceRecord(float("nan"), "nan", ("x",), (None,)),
)


def _formula(record):
    return repr((record.ts, record.type,
                 tuple(zip(record.keys, record.values))))


def test_record_template_renders_the_repr_of_the_pairs():
    for record in _FORMULA_RECORDS:
        template = identity.record_template(record.keys)
        assert (template % ((record.ts, record.type) + record.values)
                == _formula(record)), record


def test_streamed_and_post_hoc_digests_are_the_formulas_digest():
    """The digest a sink streams while records are emitted equals the
    one fed the retained ring afterwards, and both hash the formula."""
    import hashlib

    from repro.telemetry.trace import Tracer

    expected = hashlib.sha256()
    for record in _FORMULA_RECORDS:
        expected.update(_formula(record).encode())
    clock = iter(record.ts for record in _FORMULA_RECORDS)
    tracer = Tracer(clock=lambda: next(clock))
    streamed = identity.TraceHasher()
    tracer.sinks.append(streamed)
    for record in _FORMULA_RECORDS:
        tracer.emit(record.type, record.keys, record.values)
    post_hoc = identity.TraceHasher(tracer.tail())
    assert streamed.records_hashed == post_hoc.records_hashed == len(
        _FORMULA_RECORDS)
    assert streamed.hexdigest() == post_hoc.hexdigest() == expected.hexdigest()
