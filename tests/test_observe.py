"""The observability layer: profiler identity + attribution, heartbeat
stream identity, health detectors, and the ``profile``/``watch`` CLI
surfaces.

The load-bearing tests are the identity ones: attaching the profiler
and the heartbeat emitter to a chaos campaign must leave the verdict
report, the trace stream, and every non-``observe.*`` metric
byte-identical to the unobserved run. Observation never changes the run.
"""

import json

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
from repro.observe.profiler import CACHE_LIMIT, Profiler, subsystem_of
from repro.tools.runner import main as tools_main


def _metrics_without_observe(registry):
    snap = registry.snapshot()
    return {
        section: {k: v for k, v in entries.items()
                  if not k.startswith("observe.")}
        for section, entries in snap.items()
    }


# -- the identity contract -----------------------------------------------------


def test_profiled_campaign_is_byte_identical(tmp_path):
    """Profiler + heartbeats on: verdict, trace, and metrics (minus
    observe.*) match the unobserved run byte for byte."""
    campaign = CAMPAIGNS["single_failover"]
    trace_a = tmp_path / "a.jsonl"
    trace_b = tmp_path / "b.jsonl"
    hb = tmp_path / "hb.ndjson"

    plain = run_campaign_result(campaign, seed=7, trace_path=str(trace_a))
    observed = run_campaign_result(
        campaign, seed=7, trace_path=str(trace_b),
        observe=ObserveOptions(profile=True, heartbeat=True,
                               heartbeat_path=str(hb)))

    assert verdict_json(plain.report) == verdict_json(observed.report)
    assert trace_a.read_bytes() == trace_b.read_bytes()
    assert _metrics_without_observe(plain.metrics) == \
        _metrics_without_observe(observed.metrics)

    # The profiler actually saw the run: every simulator event, classified.
    profiler = observed.observe.profiler
    assert profiler.events > 0
    assert profiler.events == sum(
        row["calls"] for row in profiler.subsystem_table())
    assert hb.exists() and len(read_heartbeats(str(hb))) > 0


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
        campaign, seed=7, observe=ObserveOptions(profile=True,
                                                 heartbeat=True))
    assert plain.report["trace"]["records_emitted"] == \
        observed.report["trace"]["records_emitted"]


# -- profiler unit behavior ----------------------------------------------------


def test_subsystem_mapping():
    assert subsystem_of("repro.core.engine") == "engine"
    assert subsystem_of("repro.net.links") == "links"
    assert subsystem_of("repro.net.routing") == "net"
    assert subsystem_of("repro.statestore.server") == "statestore"
    assert subsystem_of("repro.chaos.workload") == "chaos"
    assert subsystem_of("__main__") == "other"


def test_profiler_counts_and_flamegraph(tmp_path):
    prof = Profiler()

    def handler():
        pass

    for _ in range(5):
        prof.record(handler, 0.001)
    assert prof.events == 5
    assert prof.wall_s == pytest.approx(0.005)
    rows = prof.handler_rows()
    assert len(rows) == 1 and rows[0]["calls"] == 5
    assert rows[0]["handler"].endswith("handler")

    stacks = prof.collapsed_stacks()
    assert len(stacks) == 1
    frame, value = stacks[0].rsplit(" ", 1)
    assert frame.startswith("sim;") and frame.count(";") == 3
    assert int(value) == 5000  # 0.005 s in integer microseconds

    out = tmp_path / "flame.txt"
    assert prof.write_flamegraph(str(out)) == 1
    assert out.read_text().strip() == stacks[0]


def test_profiler_bound_method_memoization():
    """Bound methods of the same function share one stats entry."""

    class Thing:
        def cb(self):
            pass

    prof = Profiler()
    a, b = Thing(), Thing()
    prof.record(a.cb, 0.001)
    prof.record(b.cb, 0.001)
    rows = prof.handler_rows()
    assert len(rows) == 1 and rows[0]["calls"] == 2
    assert len(prof._cache) == 1


def test_profiler_cache_cap():
    prof = Profiler()
    prof._cache = {i: [0, 0.0] for i in range(CACHE_LIMIT)}
    before = dict(prof._stats)

    def uncached():
        pass

    prof.record(uncached, 0.002)
    prof.record(uncached, 0.002)
    assert prof.cache_overflows == 2
    assert prof.events == 2  # still counted, just resolved uncached
    assert len(prof._cache) == CACHE_LIMIT
    assert before == {}  # sanity: stats grew via the uncached path


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


def test_cli_profile_quickstart_with_flame_and_heartbeat(tmp_path, capsys):
    flame = tmp_path / "flame.txt"
    hb = tmp_path / "hb.ndjson"
    code = tools_main(["profile", "quickstart", "--flame", str(flame),
                       "--heartbeat", str(hb)])
    assert code == 0
    out = capsys.readouterr().out
    assert "subsystem" in out and "hottest handlers" in out
    lines = flame.read_text().splitlines()
    assert lines and all(" " in ln and ln.startswith("sim;") for ln in lines)
    assert read_heartbeats(str(hb))


def test_cli_profile_campaign_json(capsys):
    code = tools_main(["profile", "single_failover", "--json"])
    assert code == 0
    profile = json.loads(capsys.readouterr().out)
    assert profile["events"] > 0
    assert {row["subsystem"] for row in profile["subsystems"]} >= \
        {"links", "statestore"}


def test_cli_profile_unknown_target(capsys):
    assert tools_main(["profile", "nope"]) == 2


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
    from repro.net.simulator import Simulator

    sim = Simulator(seed=1)
    bundle = attach(sim, profile=True)
    assert sim.observe is bundle
    sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    assert bundle.profiler.events == 1
    sim.detach_observe()
    assert sim.observe is None
