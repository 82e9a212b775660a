"""The telemetry spine: metric registry, trace ring, timers."""

from __future__ import annotations

import pytest

from repro import Simulator, deploy
from repro.analysis import stats
from repro.apps.counter import SyncCounterApp
from repro.net.packet import Packet
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    ScopedTimer,
    TraceRecord,
    Tracer,
    read_jsonl,
)
from repro.telemetry import trace as tt
from repro.telemetry.metrics import render_snapshot


# -- registry ----------------------------------------------------------------

def test_registry_get_or_create_identity():
    reg = MetricRegistry()
    a = reg.counter("pkts", switch="agg1")
    b = reg.counter("pkts", switch="agg1")
    other = reg.counter("pkts", switch="agg2")
    assert a is b
    assert a is not other
    a.inc(3)
    assert reg.value("pkts", switch="agg1") == 3.0
    assert reg.value("pkts", switch="agg2") == 0.0


def test_registry_kind_mismatch_rejected():
    reg = MetricRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_registry_total_filters_scalar_and_set():
    reg = MetricRegistry()
    reg.counter("bytes", switch="a").inc(10)
    reg.counter("bytes", switch="b").inc(20)
    reg.counter("bytes", switch="c").inc(40)
    assert reg.total("bytes") == 70.0
    assert reg.total("bytes", switch="a") == 10.0
    assert reg.total("bytes", switch={"a", "c"}) == 50.0
    assert reg.total("bytes", switch="missing") == 0.0


def _mixed_registry():
    """Counters, gauges and histograms under several names and label
    sets, with values whose sum depends on the order of addition."""
    reg = MetricRegistry()
    made = []
    for i, value in enumerate((1e16, 1.0, -1e16, 3.0, 0.1, -0.3)):
        g = reg.gauge("x", switch=f"s{i % 3}", idx=i)
        g.set(value)
        made.append(g)
        reg.counter("y", switch=f"s{i % 3}").inc(i)
        if i % 2:
            # Same name, no ``switch`` label at all.
            c = reg.counter("x", lane=i)
            c.inc(0.7 * i)
            made.append(c)
        for _ in range(i):
            reg.histogram("z", switch=f"s{i % 2}").observe(1.0)
    h = reg.histogram("x", switch="s1", kind="rtt")
    h.observe(5.0)
    made.append(h)
    return reg, made


def _brute_total(reg, name, **label_filter):
    """``total`` as the registry-wide walk computed it."""
    allowed = {
        k: ({str(i) for i in v} if isinstance(v, (set, list, tuple))
            else {str(v)})
        for k, v in label_filter.items()
    }
    total = 0.0
    for inst in reg.instruments():
        labels = dict(inst.labels)
        if inst.name == name and all(
                labels.get(k) in vals for k, vals in allowed.items()):
            total += inst.value
    return total


def test_instruments_by_name_are_in_creation_order():
    reg, made = _mixed_registry()
    assert list(reg.instruments("x")) == made
    assert [i for i in reg.instruments() if i.name == "x"] == made
    assert isinstance(made[-1], Histogram)
    assert list(reg.instruments("nope")) == []
    assert len(list(reg.instruments())) == len(reg)
    # The fixture is order-sensitive: another order gives another float.
    assert sum(sorted(i.value for i in made)) != reg.total("x")


@pytest.mark.parametrize("label_filter", [
    {},
    {"switch": "s1"},
    {"switch": {"s0", "s2"}},
    {"lane": [1, 3]},            # a label most instruments lack
    {"switch": "s1", "kind": "rtt"},
    {"switch": "missing"},
])
def test_total_equals_the_registry_wide_walk(label_filter):
    reg, _made = _mixed_registry()
    for name in ("x", "y", "z", "nope"):
        assert reg.total(name, **label_filter) == \
            _brute_total(reg, name, **label_filter)


def _bytecodes(fn):
    """Bytecodes executed by ``fn()``, frames it calls included."""
    import sys

    executed = [0]

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        if event == "opcode":
            executed[0] += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return executed[0]


def test_total_cost_does_not_grow_with_unrelated_instruments():
    """Deterministic complexity check. Counted in bytecodes, not Python
    calls: a generator skipping 5 000 instruments makes no call, so the
    call count was already flat when ``total`` walked the registry."""
    counts = []
    for unrelated in (10, 5000):
        reg = MetricRegistry()
        for i in range(3):
            reg.counter("x", switch=i).inc(i)
        for i in range(unrelated):
            reg.counter("other", idx=i)
        counts.append(_bytecodes(lambda: reg.total("x")))
        assert reg.total("x") == 3.0
    assert counts[0] == counts[1]


def test_counter_monotonic_and_gauge_ratchet():
    reg = MetricRegistry()
    c = reg.counter("c")
    with pytest.raises(ValueError):
        c.inc(-1)
    g = reg.gauge("g")
    g.add(5)
    g.add(-2)
    assert g.value == 3.0
    g.set_max(10)
    g.set_max(4)
    assert g.value == 10.0


def test_snapshot_sections_and_describe():
    reg = MetricRegistry()
    reg.counter("a.total", switch="s1").inc()
    reg.gauge("b.level").set(2)
    reg.histogram("c.dist").observe(1.0)
    snap = reg.snapshot()
    assert snap["counters"] == {"a.total{switch=s1}": 1.0}
    assert snap["gauges"] == {"b.level": 2.0}
    assert snap["histograms"]["c.dist"]["count"] == 1.0
    rendered = render_snapshot(snap)
    assert "a.total{switch=s1}" in rendered


# -- histogram ----------------------------------------------------------------

def test_histogram_percentiles_match_analysis_stats():
    reg = MetricRegistry()
    hist = reg.histogram("rtt")
    samples = [float((7 * i) % 101) for i in range(100)]
    for s in samples:
        hist.observe(s)
    for p in (0, 25, 50, 90, 99, 100):
        assert hist.percentile(p) == stats.percentile(samples, p)
    summary = hist.summary()
    assert summary["p50"] == stats.percentile(samples, 50)
    assert summary["count"] == 100.0
    assert summary["min"] == min(samples)
    assert summary["max"] == max(samples)


def test_histogram_decimation_bounds_memory_keeps_exact_aggregates():
    reg = MetricRegistry()
    hist = reg.histogram("big", max_samples=64)
    n = 10_000
    for i in range(n):
        hist.observe(float(i))
    assert len(hist.samples) < 64
    assert hist.count == n
    assert hist.sum == sum(range(n))
    s = hist.summary()
    assert s["min"] == 0.0 and s["max"] == float(n - 1)
    # Decimated percentiles stay close to the true distribution.
    assert abs(s["p50"] - stats.percentile(list(map(float, range(n))), 50)) < n * 0.05


def test_histogram_decimation_is_deterministic():
    def fill():
        h = Histogram("h", max_samples=32)
        for i in range(1000):
            h.observe(float((13 * i) % 997))
        return h.samples

    assert fill() == fill()


# -- tracer -------------------------------------------------------------------

def test_tracer_ring_truncation():
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0], maxlen=8)
    for i in range(20):
        clock[0] = float(i)
        tracer.emit("tick", i=i)
    assert len(tracer) == 8
    assert tracer.records_emitted == 20
    assert tracer.records_dropped == 12
    assert [r.fields["i"] for r in tracer.tail()] == list(range(12, 20))
    assert [r.fields["i"] for r in tracer.tail(3)] == [17, 18, 19]
    assert tracer.tail(0) == []  # not the whole ring ([-0:] pitfall)
    # Nothing but the ring's bound removes a record, so ``records_dropped``
    # can only mean truncation; and emitting has no off switch.
    assert not hasattr(tracer, "clear") and not hasattr(tracer, "enabled")


def test_tracer_jsonl_round_trip(tmp_path):
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0])
    clock[0] = 1.5
    tracer.emit(tt.PACKET_DROP, link="agg1<->core", reason="loss", size=64)
    clock[0] = 2.0
    tracer.emit(tt.LEASE_GRANT, switch="agg1", flow="f", migrated=False)
    path = tmp_path / "trace.jsonl"
    assert tracer.flush_to(str(path)) == 2
    back = read_jsonl(str(path))
    assert back == tracer.tail()
    assert back[0].ts == 1.5
    assert back[0].fields["reason"] == "loss"
    assert back[1].type == tt.LEASE_GRANT


def test_tracer_sink_streams_records(tmp_path):
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0], maxlen=4)
    path = tmp_path / "stream.jsonl"
    tracer.open_sink(str(path))
    for i in range(10):  # more than the ring keeps
        tracer.emit("tick", i=i)
    tracer.close_sink()
    back = read_jsonl(str(path))
    assert len(back) == 10  # the sink sees everything, the ring only 4
    assert len(tracer) == 4


def _traced_run(seed: int):
    """One small end-to-end run; returns its full trace stream."""
    sim = Simulator(seed=seed)
    dep = deploy(sim, SyncCounterApp)
    sender = dep.bed.externals[0]
    receiver = dep.bed.servers[0]
    for i in range(10):
        sim.schedule(
            i * 200.0,
            lambda: sender.send(Packet.udp(sender.ip, receiver.ip, 5555, 7777)),
        )
    sim.run_until_idle()
    return [(r.ts, r.type, r.fields) for r in sim.tracer.tail()]


def test_trace_deterministic_for_same_seed():
    first = _traced_run(seed=11)
    second = _traced_run(seed=11)
    assert first == second
    assert first  # the run actually traced something
    types = {t for _ts, t, _f in first}
    assert tt.PACKET_SEND in types
    assert tt.LEASE_REQUEST in types
    assert tt.LEASE_GRANT in types


def test_end_to_end_metrics_population():
    sim = Simulator(seed=11)
    dep = deploy(sim, SyncCounterApp)
    sender = dep.bed.externals[0]
    receiver = dep.bed.servers[0]
    for i in range(10):
        sim.schedule(
            i * 200.0,
            lambda: sender.send(Packet.udp(sender.ip, receiver.ip, 5555, 7777)),
        )
    sim.run_until_idle()
    reg = sim.metrics
    # Every layer published: links, switches, engines, stores.
    assert reg.total("link.tx_packets") > 0
    assert reg.total("switch.pkts_processed") > 0
    # >= sends: a buffered packet bouncing through the network re-enters
    # the engine and counts again.
    assert reg.total("redplane.app_packets") >= 10.0
    assert reg.total("store.requests_processed") > 0
    snap = reg.snapshot()
    assert snap["counters"] and snap["gauges"] and snap["histograms"]


# -- one counter API ----------------------------------------------------------

def test_registry_is_the_only_counter_surface():
    """No dict-shaped second view: the simulator has no ``counters``
    attribute, and ``eng.stats`` is a fresh dict of plain ints equal to
    the registry's ``redplane.<stat>{switch}`` counters."""
    sim = Simulator(seed=11)
    assert not hasattr(sim, "counters")
    dep = deploy(sim, SyncCounterApp)
    sender = dep.bed.externals[0]
    receiver = dep.bed.servers[0]
    for i in range(5):
        sim.schedule(
            i * 200.0,
            lambda: sender.send(Packet.udp(sender.ip, receiver.ip, 5555, 7777)),
        )
    sim.run_until_idle()
    assert sum(e.stats["app_packets"] for e in dep.engines.values()) >= 5
    for eng in dep.engines.values():
        stats_now = eng.stats
        assert type(stats_now) is dict
        assert all(type(v) is int for v in stats_now.values())
        assert stats_now == {
            stat: sim.metrics.value(f"redplane.{stat}",
                                    switch=eng.switch.name)
            for stat in stats_now
        }


# -- timers -------------------------------------------------------------------

def test_scoped_timer_measures_and_feeds_histogram():
    hist = Histogram("t")
    with ScopedTimer("scope", histogram=hist) as timer:
        sum(range(1000))
    assert timer.elapsed_s > 0.0
    assert hist.count == 1
    assert timer.rate(100) > 0.0
    before = timer.elapsed_s
    timer.stop()  # idempotent: a second stop does not re-observe
    assert timer.elapsed_s == before
    assert hist.count == 1
