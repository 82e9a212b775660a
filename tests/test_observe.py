"""The observability layer: heartbeat stream identity, health detectors,
and the ``chaos --heartbeat``/``watch`` CLI surfaces.

The load-bearing tests are the identity ones: attaching the heartbeat
emitter (and the health detectors) to a chaos campaign must leave the
verdict report, the trace stream, and every non-``observe.*`` metric
byte-identical to the unobserved run. Observation never changes the run.
"""

import pytest

from repro.chaos.campaigns import CAMPAIGNS
from repro.chaos.runner import run_campaign_result, verdict_json
from repro.observe import ObserveOptions, attach
from repro.observe.health import (
    HealthMonitor,
    QueueGrowthDetector,
    RecoverySloDetector,
    ResendStormDetector,
    WalStallDetector,
)
from repro.observe.heartbeat import read_heartbeats, snapshot_json
from repro.tools.runner import main as tools_main


def _metrics_without_observe(registry):
    snap = registry.snapshot()
    return {
        section: {k: v for k, v in entries.items()
                  if not k.startswith("observe.")}
        for section, entries in snap.items()
    }


# -- the identity contract -----------------------------------------------------


@pytest.mark.parametrize("health", [False, True],
                         ids=["heartbeat", "health"])
def test_observed_campaign_is_byte_identical(tmp_path, health):
    """Heartbeat file + in-memory heartbeat on: verdict, trace, and
    metrics (minus observe.*) match the unobserved run byte for byte.
    With the detectors armed too, the only difference is the ``health.*``
    trace lines themselves."""
    campaign = CAMPAIGNS["single_failover"]
    trace_a = tmp_path / "a.jsonl"
    trace_b = tmp_path / "b.jsonl"
    hb = tmp_path / "hb.ndjson"

    plain = run_campaign_result(campaign, seed=7, trace_path=str(trace_a))
    observed = run_campaign_result(
        campaign, seed=7, trace_path=str(trace_b),
        observe=ObserveOptions(heartbeat=True, heartbeat_path=str(hb),
                               health=health))

    assert _metrics_without_observe(plain.metrics) == \
        _metrics_without_observe(observed.metrics)
    assert hb.exists() and len(read_heartbeats(str(hb))) > 0
    assert read_heartbeats(str(hb)) == observed.observe.heartbeat.snapshots
    # health=False adds no trace line (so the filter below is the
    # identity and the comparison is byte for byte); health=True must
    # fire, or that case tests nothing.
    lines = trace_b.read_bytes().splitlines(keepends=True)
    health_lines = [ln for ln in lines if b'"type":"health.' in ln]
    detections = observed.observe.health.counts() if health else {}
    assert bool(health_lines) == health
    assert len(health_lines) == sum(detections.values())
    assert b"".join(ln for ln in lines if ln not in health_lines) == \
        trace_a.read_bytes()
    # The verdict differs by exactly that many emitted records.
    expected = dict(plain.report)
    expected["trace"] = dict(
        expected["trace"],
        records_emitted=plain.report["trace"]["records_emitted"]
        + len(health_lines))
    assert verdict_json(expected) == verdict_json(observed.report)


@pytest.mark.parametrize("seed", [3, 11])
def test_heartbeat_stream_ab_identity(tmp_path, seed):
    """Two same-seed runs produce byte-identical heartbeat streams."""
    campaign = CAMPAIGNS["gray_link"]
    paths = []
    for tag in ("a", "b"):
        path = tmp_path / f"hb-{seed}-{tag}.ndjson"
        run_campaign_result(
            campaign, seed=seed,
            observe=ObserveOptions(heartbeat=True,
                                   heartbeat_path=str(path)))
        paths.append(path)
    a, b = paths[0].read_bytes(), paths[1].read_bytes()
    assert a and a == b


def test_health_events_are_opt_in(tmp_path):
    """health=False (the default) emits no health.* trace records, so
    observing cannot inflate records_emitted in the verdict report."""
    campaign = CAMPAIGNS["single_failover"]
    plain = run_campaign_result(campaign, seed=7)
    observed = run_campaign_result(
        campaign, seed=7, observe=ObserveOptions(heartbeat=True))
    assert plain.report["trace"]["records_emitted"] == \
        observed.report["trace"]["records_emitted"]


# -- health detectors on synthetic series --------------------------------------


def _snap(t_us, retx=0, backlog=0.0, delivered=None, faults=None,
          stores_down=None, wal=0):
    snap = {
        "t_us": t_us,
        "events": 0,
        "pending": 0,
        "events_per_sim_ms": 0.0,
        "queues": {"link_backlog_us": backlog, "mirror_copies": 0,
                   "buffer_bytes": 0},
        "counters": {"retransmissions": retx, "acks_received": 0,
                     "lease_requests": 0, "store_recoveries": 0,
                     "wal_replayed": wal, "link_drops": 0},
    }
    if delivered is not None:
        snap["delivered"] = delivered
    if faults is not None:
        snap["faults_active"] = faults
    if stores_down is not None:
        snap["stores_down"] = stores_down
    return snap


def test_resend_storm_detector_edge_triggers():
    det = ResendStormDetector(threshold=10)
    series = [_snap(t * 1000.0, retx=r)
              for t, r in enumerate([0, 2, 30, 60, 61, 90])]
    firings = [det.update(s) for s in series]
    # Fires at the 2->30 jump, stays quiet during the sustained storm
    # (30->60 is the same episode), re-arms on the calm 60->61 interval,
    # then fires again at 61->90.
    assert [f is not None for f in firings] == \
        [False, False, True, False, False, True]
    value, threshold = firings[2]
    assert value == 28.0 and threshold == 10.0


def test_queue_growth_detector_needs_sustained_rise():
    det = QueueGrowthDetector(consecutive=3, floor_us=50.0)
    rising = [_snap(t * 1000.0, backlog=b)
              for t, b in enumerate([0.0, 40.0, 80.0, 120.0])]
    firings = [det.update(s) for s in rising]
    # Fires once the rise spans `consecutive` snapshots (index 2) and
    # stays quiet while the same episode keeps growing (index 3).
    assert [f is not None for f in firings] == [False, False, True, False]
    # A sawtooth never accumulates the consecutive rises.
    det2 = QueueGrowthDetector(consecutive=3, floor_us=50.0)
    saw = [_snap(t * 1000.0, backlog=b)
           for t, b in enumerate([0.0, 60.0, 10.0, 70.0, 20.0, 80.0])]
    assert all(det2.update(s) is None for s in saw)


def test_recovery_slo_detector():
    det = RecoverySloDetector(slo_us=100_000.0)
    # Delivery progress at t=0, fault lands, deliveries stall past SLO.
    assert det.update(_snap(0.0, delivered=5, faults=0)) is None
    assert det.update(_snap(50_000.0, delivered=5, faults=1)) is None
    fired = det.update(_snap(150_000.0, delivered=5, faults=1))
    assert fired is not None and fired[0] == pytest.approx(150_000.0)
    # Same episode: no re-fire; progress re-arms.
    assert det.update(_snap(200_000.0, delivered=5, faults=1)) is None
    assert det.update(_snap(210_000.0, delivered=6, faults=1)) is None
    # Snapshots without the provider fields are ignored.
    assert RecoverySloDetector().update(_snap(0.0)) is None


def test_wal_stall_detector():
    det = WalStallDetector(window_us=100_000.0)
    assert det.update(_snap(0.0, stores_down=0, wal=0)) is None
    assert det.update(_snap(10_000.0, stores_down=1, wal=0)) is None
    fired = det.update(_snap(150_000.0, stores_down=1, wal=0))
    assert fired is not None
    assert fired[0] == pytest.approx(140_000.0)
    # Replay progress clears the episode.
    assert det.update(_snap(160_000.0, stores_down=1, wal=500)) is None
    assert det.update(_snap(170_000.0, stores_down=1, wal=500)) is None


def test_health_monitor_emits_trace_and_metrics():
    from repro.net.simulator import Simulator

    sim = Simulator(seed=1)
    monitor = HealthMonitor(sim, [ResendStormDetector(threshold=5)])
    monitor.observe(_snap(1000.0, retx=0))
    monitor.observe(_snap(2000.0, retx=50))
    assert monitor.counts() == {"resend_storm": 1}
    records = [r for r in sim.tracer.tail(10)
               if r.type == "health.resend_storm"]
    assert len(records) == 1
    assert records[0].fields["detector"] == "resend_storm"
    assert sim.metrics.total("observe.health.detections",
                             detector="resend_storm") == 1.0


def test_fuzz_scorecard_pools_health_detections():
    from repro.chaos.fuzz import run_fuzz

    report = run_fuzz(seed=3, budget=2)
    assert "health_detections" in report["scorecard"]
    for entry in report["scorecard"]["fault_classes"].values():
        for count in entry.get("health_detections", {}).values():
            assert count > 0


# -- scorecard rendering determinism -------------------------------------------


def test_scorecard_render_sorts_input_order():
    from repro.chaos.scorecard import Scorecard

    entry = {"schedules": 1, "faults": 2, "violations": 0,
             "unrecovered": 0, "records_lost": 3, "max_resend_storm": 7,
             "total_resends": 7}
    forward = {
        "schedules_run": 2, "schedules_violated": 0,
        "health_detections": {"slo_burn": 1, "wal_stall": 2},
        "fault_classes": {"fail_link": dict(entry),
                          "crash_store": dict(entry)},
    }
    backward = {
        "schedules_run": 2, "schedules_violated": 0,
        "health_detections": {"wal_stall": 2, "slo_burn": 1},
        "fault_classes": {"crash_store": dict(entry),
                          "fail_link": dict(entry)},
    }
    assert Scorecard.render_dict(forward) == Scorecard.render_dict(backward)
    rendered = Scorecard.render_dict(forward)
    assert rendered.index("crash_store") < rendered.index("fail_link")
    assert "slo_burn=1" in rendered and "wal_stall=2" in rendered


# -- perfetto: the dedicated faults track --------------------------------------


def test_perfetto_faults_share_one_track():
    from repro.telemetry import trace as tt
    from repro.telemetry.perfetto import (
        PID_CHAOS, export_chrome_trace, validate_chrome_trace,
    )
    from repro.telemetry.trace import TraceRecord

    records = [
        TraceRecord(10.0, tt.FAULT_INJECT, {"kind": "fail_link",
                                            "target": "agg1<->tor1"}),
        TraceRecord(20.0, tt.FAULT_INJECT, {"kind": "crash_store",
                                            "target": "st2"}),
        TraceRecord(30.0, tt.FAULT_CLEAR, {"kind": "recover_link",
                                           "target": "agg1<->tor1"}),
        TraceRecord(40.0, tt.HEALTH_SLO_BURN, {"detector": "slo_burn",
                                               "value": 1.0,
                                               "threshold": 1.0}),
    ]
    doc = export_chrome_trace(records)
    validate_chrome_trace(doc)
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    fault_events = [e for e in instants if e["name"].startswith("fault.")]
    assert len(fault_events) == 3
    # One track: same pid and same tid for every fault, targets differ.
    assert {(e["pid"], e["tid"]) for e in fault_events} == {
        (PID_CHAOS, fault_events[0]["tid"])}
    assert fault_events[0]["name"] == "fault.inject agg1<->tor1"
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"faults", "health"} <= names
    health = [e for e in instants if e["name"].startswith("health.")]
    assert len(health) == 1
    assert health[0]["tid"] != fault_events[0]["tid"]


# -- CLI surfaces --------------------------------------------------------------


def test_cli_chaos_heartbeat_then_watch(tmp_path, capsys):
    hb = tmp_path / "hb.ndjson"
    assert tools_main(["chaos", "gray_link", "--heartbeat", str(hb)]) == 0
    assert read_heartbeats(str(hb))
    capsys.readouterr()
    assert tools_main(["watch", str(hb)]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 1 + len(read_heartbeats(str(hb)))


def test_cli_watch_renders_heartbeats(tmp_path, capsys):
    path = tmp_path / "hb.ndjson"
    snaps = [_snap(10_000.0, retx=3), _snap(20_000.0, retx=5)]
    path.write_text("".join(snapshot_json(s) + "\n" for s in snaps))
    assert tools_main(["watch", str(path)]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + one line per snapshot
    assert "sim time" in lines[0]
    assert "10.0ms" in lines[1] and "20.0ms" in lines[2]


def test_cli_watch_missing_file():
    assert tools_main(["watch", "/nonexistent/hb.ndjson"]) == 2


@pytest.mark.parametrize("merged", [False, True], ids=["single", "merged"])
def test_cli_watch_rejects_non_snapshot_lines(tmp_path, capsys, merged):
    """Valid JSON that is not a snapshot, and invalid JSON, are named by
    file and line on stderr; the good line still renders; exit 1."""
    path = tmp_path / "hb.ndjson"
    path.write_text(
        '{"t_us":1000.0}\n[1,2]\n{"t_us":"x"}\n'
        '{"t_us":2000.0,"queues":3}\nnot json\n')
    argv = ["watch", str(path)]
    if merged:
        clean = tmp_path / "heartbeat.clean.ndjson"
        clean.write_text(snapshot_json(_snap(500.0)) + "\n")
        argv.append(str(clean))
    assert tools_main(argv) == 1
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()[1:]
    assert len(rows) == (2 if merged else 1)
    assert "1.0ms" in rows[-1]
    diagnostics = captured.err.strip().splitlines()
    assert [d.split(": ")[0] for d in diagnostics] == \
        [f"{path}:{n}" for n in (2, 3, 4, 5)]
    assert all("not a heartbeat snapshot: " in d for d in diagnostics)
    assert diagnostics[-1].endswith("not json")


def test_watch_follow_holds_back_a_newline_less_last_line(tmp_path, capsys):
    from repro.observe.console import watch

    path = tmp_path / "hb.ndjson"
    path.write_text(snapshot_json(_snap(10_000.0)) + '\n{"t_us":20')
    assert watch(str(path), follow=True, max_lines=1) == 0
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 2 and not captured.err
    # The same bytes as a finished file: the torn tail is a rejected line.
    assert watch(str(path)) == 1


def test_heartbeat_sink_is_readable_before_close(tmp_path):
    """``watch -f`` in another process reads the file while the campaign
    runs, so every emitted snapshot must be on disk as it is emitted."""
    from repro.net.simulator import Simulator

    path = tmp_path / "hb.ndjson"
    sim = Simulator(seed=1)
    bundle = attach(sim, heartbeat_path=str(path),
                    heartbeat_interval_us=1_000.0)
    for i in range(1, 20):
        sim.schedule(i * 1_000.0, lambda: None)
    sim.run_until_idle()
    assert len(bundle.heartbeat.snapshots) == 19
    assert path.stat().st_size > 0
    assert read_heartbeats(str(path)) == bundle.heartbeat.snapshots
    bundle.close()
    assert read_heartbeats(str(path)) == bundle.heartbeat.snapshots


def test_link_backlog_is_the_sum_of_both_lanes_bit_for_bit():
    """``Link.backlog_us`` reads its two lanes directly; the heartbeat's
    queue depth must be the float the generator expression summed to."""
    from repro.net.links import Link, SinkNode
    from repro.net.packet import Packet
    from repro.net.simulator import Simulator
    from repro.observe.heartbeat import HeartbeatEmitter

    sim = Simulator(seed=1)
    a, b = SinkNode(sim, "a"), SinkNode(sim, "b")
    link = Link(sim, a.new_port(), b.new_port(), bandwidth_gbps=0.003)
    heartbeat = HeartbeatEmitter(sim, links=[link])

    def reference():
        now = sim.now
        return sum(max(0.0, lane.busy_until - now)
                   for lane in (link._lane_a, link._lane_b))

    seen = []

    def check():
        assert link.backlog_us().hex() == reference().hex()
        assert heartbeat.snapshot()["queues"]["link_backlog_us"] == \
            round(reference(), 3)
        seen.append(tuple(lane.busy_until > sim.now
                          for lane in (link._lane_a, link._lane_b)))

    check()                                                      # never used
    sim.schedule(0.1, a.ports[0].send, Packet.udp(1, 2, 3, 4, payload=b"x" * 70))
    sim.schedule(0.7, check)                                     # a busy
    sim.schedule(0.9, b.ports[0].send, Packet.udp(2, 1, 4, 3, payload=b"y" * 333))
    sim.schedule(1.3, check)                                     # both busy
    sim.schedule(400.3, check)                                   # b busy
    sim.schedule(5000.1, check)                                  # both drained
    sim.run_until_idle()
    assert seen == [(False, False), (True, False), (True, True),
                    (False, True), (False, False)]


def test_cli_metrics_filter_and_csv(capsys):
    assert tools_main(["metrics", "--filter", "redplane.*",
                       "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "section,metric,field,value"
    assert len(lines) > 1
    assert all(ln.split(",")[1].startswith("redplane.")
               for ln in lines[1:])


def test_cli_trace_since(capsys):
    assert tools_main(["trace", "--since", "900000", "--tail", "500"]) == 0
    out = capsys.readouterr().out
    ts = [float(ln.split()[0]) for ln in out.strip().splitlines() if ln]
    assert ts and all(t >= 900000.0 for t in ts)


# -- attach() plumbing ---------------------------------------------------------


def test_attach_and_detach_roundtrip():
    """``attach`` sets ``sim.on_event``; the hook sees one call per
    executed event with that event's time; clearing it restores silence."""
    from repro.net.simulator import Simulator

    sim = Simulator(seed=1)
    assert sim.on_event is None
    bundle = attach(sim)
    assert sim.on_event == bundle.heartbeat.tick
    seen = []
    sim.on_event = seen.append
    for delay in (1.0, 2.5, 2.5):
        sim.schedule(delay, lambda: None)
    sim.run_until_idle()
    assert seen == [1.0, 2.5, 2.5]
    sim.on_event = None
    sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    assert seen == [1.0, 2.5, 2.5]
    assert sim.events_executed == 4
