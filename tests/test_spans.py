"""Packet-lifecycle spans: uid threading, completeness, determinism."""

import filecmp

import pytest

from repro.chaos import run_campaign
from repro.net.links import Link, LinkImpairment, SinkNode
from repro.net.packet import Packet
from repro.net.simulator import Simulator
from repro.telemetry import trace as tt
from repro.telemetry.perfetto import (
    dump_chrome_trace,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry.spans import SpanBuilder
from repro.telemetry.trace import TraceRecord, read_jsonl
from repro.tools.demo import quickstart_run


# -- uid threading on the wire -------------------------------------------------


def _one_link(sim):
    src = SinkNode(sim, "src")
    dst = SinkNode(sim, "dst")
    link = Link(sim, src.new_port(), dst.new_port(), latency_us=1.0)
    return src, dst, link


def test_transmit_assigns_uid_and_terminates():
    sim = Simulator(seed=1)
    src, dst, _link = _one_link(sim)
    pkt = Packet.udp(1, 2, 10, 20)
    src.ports[0].send(pkt)
    sim.run_until_idle()
    uid = pkt.meta["uid"]
    assert uid >= 1
    sends = [r for r in sim.tracer.tail() if r.type == tt.PACKET_SEND]
    delivers = [r for r in sim.tracer.tail() if r.type == tt.PACKET_DELIVER]
    assert [r.fields["uid"] for r in sends] == [uid]
    assert [r.fields["uid"] for r in delivers] == [uid]
    assert sends[0].fields["kind"] == "app"


def test_drop_on_down_link_still_carries_uid():
    sim = Simulator(seed=1)
    src, _dst, link = _one_link(sim)
    link.fail()
    pkt = Packet.udp(1, 2, 10, 20)
    src.ports[0].send(pkt)
    sim.run_until_idle()
    report = SpanBuilder(sim.tracer.tail()).verify()
    assert report.ok
    (drop,) = [r for r in sim.tracer.tail() if r.type == tt.PACKET_DROP]
    assert drop.fields["uid"] == pkt.meta["uid"]
    assert drop.fields["reason"] == "down"


def test_duplicate_copy_gets_child_span():
    sim = Simulator(seed=1)
    src, dst, link = _one_link(sim)
    link.impair(LinkImpairment(duplicate_rate=1.0))
    src.ports[0].send(Packet.udp(1, 2, 10, 20))
    sim.run_until_idle()
    assert len(dst.received) == 2
    builder = SpanBuilder(sim.tracer.tail())
    assert builder.verify().ok
    (dup,) = [r for r in sim.tracer.tail() if r.type == tt.PACKET_DUP]
    child = builder.spans[dup.fields["uid"]]
    assert child.parent == dup.fields["parent"]
    assert child.uid in builder.spans[child.parent].children
    assert child.status == "delivered"


# -- completeness verification -------------------------------------------------


def test_verify_flags_unterminated_and_orphaned():
    records = [
        TraceRecord.from_fields(1.0, tt.PACKET_SEND,
                                {"uid": 1, "link": "l", "dir": "d",
                                 "bytes": 64, "kind": "app"}),
        TraceRecord.from_fields(2.0, tt.PACKET_DELIVER,
                                {"uid": 2, "link": "l", "dir": "d",
                                 "node": "n"}),
    ]
    report = SpanBuilder(records).verify()
    assert not report.ok
    assert report.unterminated == [1]
    assert report.orphaned == [2]


def test_quickstart_spans_complete():
    _sim, records = quickstart_run(seed=7, packets=10)
    builder = SpanBuilder(records)
    report = builder.verify()
    assert report.ok, report.summary()
    assert report.spans > 0
    statuses = {span.status for span in builder.spans.values()}
    assert "in_flight" not in statuses
    # Reinjected piggybacks / pktgen packets exist only as parents.
    assert "internal" in statuses


@pytest.mark.parametrize("campaign", ["flapping_link", "rolling_rack_failure"])
def test_chaos_campaign_spans_terminate(campaign, tmp_path):
    path = str(tmp_path / "trace.jsonl")
    report = run_campaign(campaign, seed=42, trace_path=path)
    assert report["verdict"] == "PASS"
    builder = SpanBuilder(read_jsonl(path))
    completeness = builder.verify()
    assert completeness.ok, completeness.summary()
    assert completeness.spans > 100


@pytest.mark.parametrize("campaign", ["flapping_link", "rolling_rack_failure"])
def test_span_stream_byte_identical_across_same_seed_runs(campaign, tmp_path):
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    run_campaign(campaign, seed=42, trace_path=a)
    run_campaign(campaign, seed=42, trace_path=b)
    assert filecmp.cmp(a, b, shallow=False)


# -- causal flow closure -------------------------------------------------------


def test_flow_closure_reaches_protocol_spans():
    _sim, records = quickstart_run(seed=7, packets=10)
    builder = SpanBuilder(records)
    app_flow = builder.flows()[0]
    closure = builder.flow_spans(app_flow)
    kinds = {span.kind for span in closure}
    # Requests, store replies, and chain updates all descend from the
    # app packets even though they carry protocol 5-tuples.
    assert "response" in kinds
    assert "chain" in kinds
    assert any(span.kind.endswith("_req") for span in closure)


# -- Perfetto export -----------------------------------------------------------


def test_chrome_trace_validates_and_is_deterministic():
    docs = [export_chrome_trace(quickstart_run(seed=7, packets=10)[1])
            for _ in range(2)]
    counts = validate_chrome_trace(docs[0])
    assert counts["X"] > 0 and counts["i"] > 0 and counts["M"] > 0
    assert dump_chrome_trace(docs[0]) == dump_chrome_trace(docs[1])


def test_chrome_trace_validation_rejects_bad_documents():
    with pytest.raises(ValueError):
        validate_chrome_trace({"events": []})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "Q", "name": "x",
                                                "pid": 1, "tid": 1}]})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [
            {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 1.0,
             "dur": -1.0}
        ]})
