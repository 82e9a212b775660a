"""Campaign execution and verdict reports.

``run_campaign`` deploys a fresh testbed, arms the always-on auditors
(:class:`repro.model.monitors.InvariantMonitor` plus the per-flow
linearizability checker over the real packet history), injects the
campaign's faults, and distills the run into a machine-readable verdict
report. The report is a plain dict of JSON-safe values;
:func:`verdict_json` serializes it canonically (sorted keys), so two
runs with the same seed must produce byte-identical reports — that
round-trip IS the determinism regression test the CI smoke job runs.

Verdict: ``PASS`` iff every invariant held at every lease install and
record write, the delivered history is linearizable, and the workload
made progress.
Fault-induced losses are fine (§4.2 permits lost inputs/outputs);
safety violations and consistency breaks are not.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.chaos.campaigns import CAMPAIGNS, Campaign
from repro.chaos.workload import CounterWorkload, EchoCounterApp
from repro.core.engine import RedPlaneConfig
from repro.deploy import Deployment, deploy
from repro.model.linearizability import check_counter_history
from repro.model.monitors import InvariantMonitor
from repro.net.simulator import Simulator
from repro.observe import ObserveOptions
from repro.statestore.failover import StoreFailoverCoordinator
from repro.statestore.wal import WALBackend
from repro.telemetry.metrics import percentile
from repro.telemetry.trace import JsonlSink
from repro.workloads.failures import FailureSchedule, apply_specs, is_clear

#: Extra simulated time after the main phase for retransmissions,
#: buffered packets, and chain traffic to drain.
DRAIN_US = 500_000.0

#: Heartbeat period of a campaign's store failover coordinator.
COORDINATOR_HEARTBEAT_US = 50_000.0


@dataclass
class RunResult:
    """One campaign run's verdict report plus the live objects behind it.

    ``run_campaign`` returns just the report (the stable public shape);
    the fuzzer and scorecard need the underlying schedule, monitor, and
    metric registry to classify faults and pool per-class telemetry, so
    ``run_campaign_result`` hands back everything.
    """

    report: Dict[str, object]
    workload: CounterWorkload
    schedule: FailureSchedule
    monitor: InvariantMonitor
    metrics: object  # the run's MetricRegistry
    #: The run's :class:`repro.observe.Observe` bundle (heartbeat
    #: snapshots, health detections), or ``None`` when the campaign ran
    #: unobserved.
    observe: Optional[object] = None


def run_campaign(
    name: str, seed: int = 42, trace_path: Optional[str] = None,
    observe: Optional[ObserveOptions] = None,
) -> Dict[str, object]:
    """Run one named campaign and return its verdict report.

    When ``trace_path`` is given, every trace record is streamed to that
    JSONL file as it is emitted — unlike the in-memory ring, the sink
    never truncates, so the file supports full span reconstruction.
    """
    try:
        campaign = CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(CAMPAIGNS))
        raise KeyError(f"unknown campaign {name!r}; known: {known}") from None
    return run_campaign_result(campaign, seed=seed, trace_path=trace_path,
                               observe=observe).report


def run_campaign_result(
    campaign: Campaign, seed: int = 42, trace_path: Optional[str] = None,
    observe: Optional[ObserveOptions] = None, sim_factory=None,
) -> RunResult:
    """Run a :class:`Campaign` object (named or generated) and return the
    full :class:`RunResult`. The schedule is validated after it is built:
    a fault at/after ``duration_us`` or a recover-before-fail ordering
    raises :class:`repro.workloads.failures.ScheduleError` before the
    simulation starts.

    ``sim_factory`` (``seed -> Simulator``) overrides simulator
    construction; the shard runner uses it to hand in a simulator with a
    :class:`~repro.shard.recorder.ShardRecorder` (or a
    :class:`~repro.fastpath.FastPath`) already attached."""
    sim = Simulator(seed=seed) if sim_factory is None else sim_factory(seed)

    # Durable campaigns run each store node on a WAL backend rooted in a
    # scratch directory that lives exactly as long as the run. The path
    # never reaches the verdict report, so reports stay byte-identical
    # across runs (and machines) despite the unique tempdir.
    scratch: Optional[str] = None
    backend_factory = None
    if campaign.store_backend == "wal":
        scratch = tempfile.mkdtemp(prefix="repro-chaos-wal-")
        root = scratch
        backend_factory = lambda name: WALBackend(os.path.join(root, name))
    elif campaign.store_backend != "memory":
        raise ValueError(
            f"unknown store backend {campaign.store_backend!r} "
            f"for campaign {campaign.name!r}"
        )

    sink: Optional[JsonlSink] = None
    try:
        if trace_path is not None:
            sink = JsonlSink(trace_path)
            sim.tracer.sinks.append(sink)
        return _run_deployed(campaign, seed, sim, backend_factory, observe)
    finally:
        if sink is not None:
            sim.tracer.sinks.remove(sink)
            sink.close()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def _schedule(campaign: Campaign, dep: Deployment) -> FailureSchedule:
    """The campaign's faults scheduled on ``dep``, or a
    :class:`~repro.workloads.failures.ScheduleError` naming a bad one."""
    schedule = FailureSchedule(dep, detect_delay_us=campaign.detect_delay_us,
                               duration_us=campaign.duration_us)
    apply_specs(schedule, campaign.faults)
    schedule.validate()
    return schedule


def check_schedule(campaign: Campaign) -> None:
    """Raise what running ``campaign`` would raise for its fault schedule,
    without running it: the same checks, on a throwaway deployment of
    the campaign's shape."""
    _schedule(campaign, deploy(Simulator(), EchoCounterApp,
                               num_shards=campaign.num_shards,
                               chain_length=campaign.chain_length))


def _run_deployed(campaign, seed, sim, backend_factory,
                  observe: Optional[ObserveOptions] = None) -> RunResult:
    config = RedPlaneConfig(lease_period_us=campaign.lease_period_us,
                            record_history=True)
    dep = deploy(sim, EchoCounterApp, config=config,
                 num_shards=campaign.num_shards,
                 chain_length=campaign.chain_length,
                 backend_factory=backend_factory)

    monitor = InvariantMonitor(sim, dep.stores,
                               engines=list(dep.engines.values()))
    coordinator: Optional[StoreFailoverCoordinator] = None
    if campaign.coordinator:
        coordinator = StoreFailoverCoordinator(
            sim, dep.shard_map, dep.chains, switches=dep.bed.aggs,
            heartbeat_interval_us=COORDINATOR_HEARTBEAT_US,
        )
        coordinator.start()

    workload = CounterWorkload(
        dep, packets=campaign.packets, gap_us=campaign.gap_us,
        start_us=10_000.0,
    )
    workload.start()

    schedule = _schedule(campaign, dep)

    bundle = None
    if observe is not None and observe.enabled:
        from repro.observe import attach

        providers = {
            "delivered": lambda: workload.delivered,
            "faults_active": lambda: len(schedule.active_at(sim.now)),
        }
        bundle = attach(
            sim,
            heartbeat_path=observe.heartbeat_path,
            links=list(dep.bed.topology.links),
            providers=providers,
            health=observe.health,
        )

    sim.run(until=campaign.duration_us)
    if coordinator is not None:
        coordinator.stop()
    sim.run(until=campaign.duration_us + DRAIN_US)
    if bundle is not None:
        bundle.close()
        sim.on_event = None

    report = _build_report(campaign, seed, dep, workload, schedule, monitor,
                           coordinator)
    return RunResult(report=report, workload=workload, schedule=schedule,
                     monitor=monitor, metrics=sim.metrics, observe=bundle)


def recovery_latency_us(fault_time_us: float,
                        deliveries: List[float]) -> Optional[float]:
    """Time from a fault's injection to the next successful end-to-end
    delivery (``deliveries`` ascending); ``None`` if none followed. The
    verdict report and the fuzz scorecard both measure recovery here."""
    return next((t - fault_time_us for t in deliveries
                 if t > fault_time_us), None)


def _recovery_summary(schedule: FailureSchedule,
                      deliveries: List[float]) -> Dict[str, object]:
    """Recovery latency over every injected fault (clears are not one)."""
    measured = [recovery_latency_us(fault.time_us, deliveries)
                for fault in schedule.log if not is_clear(fault.spec_kind)]
    latencies = [latency for latency in measured if latency is not None]
    summary: Dict[str, object] = {
        "events": len(latencies),
        "unrecovered": len(measured) - len(latencies),
    }
    if latencies:
        summary.update(
            p50_us=round(percentile(latencies, 50.0), 3),
            p90_us=round(percentile(latencies, 90.0), 3),
            p99_us=round(percentile(latencies, 99.0), 3),
            max_us=round(max(latencies), 3),
        )
    return summary


def _build_report(
    campaign: Campaign,
    seed: int,
    dep,
    workload: CounterWorkload,
    schedule: FailureSchedule,
    monitor: InvariantMonitor,
    coordinator: Optional[StoreFailoverCoordinator],
) -> Dict[str, object]:
    metrics = dep.sim.metrics
    values = workload.delivered_values()
    try:
        linearizable = check_counter_history(workload.history())
        lin_exhausted = False
    except RuntimeError:
        # The Definition-3 search blew its node budget: the history is
        # too tangled to decide. Conservatively not linearizable, and
        # flagged so consumers (the fuzzer's witnesses) can tell
        # "undecided" apart from "proven broken".
        linearizable = False
        lin_exhausted = True
    invariants_held = monitor.ok()
    progressed = workload.delivered > 0
    verdict = "PASS" if (invariants_held and linearizable and progressed) \
        else "FAIL"

    counters = {
        "retransmissions": int(metrics.total("redplane.retransmissions")),
        "acks_received": int(metrics.total("redplane.acks_received")),
        "stale_acks_ignored": int(
            metrics.total("redplane.stale_acks_ignored")),
        "lease_requests": int(metrics.total("redplane.lease_requests")),
        "store_stale_rejections": int(
            metrics.total("store.updates_rejected_stale")),
        "chain_reconfigurations": int(
            metrics.total("store.chain_reconfigurations")),
        "store_recoveries": int(metrics.total("store.backend.recoveries")),
        "wal_records_replayed": int(
            metrics.total("store.backend.wal_replayed")),
        "link_drops_partition": int(
            metrics.total("link.drops", reason="partition")),
        "link_drops_corrupt": int(
            metrics.total("link.drops", reason="corrupt")),
        "link_drops_gray_loss": int(
            metrics.total("link.drops", reason="gray_loss")),
        "link_frames_duplicated": int(metrics.total("link.duplicated")),
    }

    return {
        "schema": 1,
        "campaign": campaign.name,
        "description": campaign.description,
        "seed": seed,
        "store_backend": campaign.store_backend,
        "duration_us": campaign.duration_us,
        "faults": schedule.detailed_summary(),
        "traffic": {
            "sent": campaign.packets,
            "delivered": workload.delivered,
            "final_count": max(values) if values else 0,
            "duplicate_values": len(values) - len(set(values)),
        },
        "invariants": {
            "held": invariants_held,
            "violations": [
                {"time_us": v.time_us, "invariant": v.invariant,
                 "detail": v.detail}
                for v in monitor.violations
            ],
        },
        "linearizable": linearizable,
        "linearizability_search_exhausted": lin_exhausted,
        "recovery_latency_us": _recovery_summary(
            schedule, workload.delivery_times()),
        "counters": counters,
        "trace": {
            "records_emitted": dep.sim.tracer.records_emitted,
            "records_dropped": dep.sim.tracer.records_dropped,
        },
        "verdict": verdict,
    }


def verdict_json(report: Dict[str, object]) -> str:
    """Canonical serialization: byte-identical for identical runs."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_report(report: Dict[str, object]) -> str:
    """Human-readable summary of a verdict report."""
    traffic = report["traffic"]
    invariants = report["invariants"]
    recovery = report["recovery_latency_us"]
    counters = report["counters"]
    lines = [
        f"campaign   : {report['campaign']} (seed {report['seed']})",
        f"verdict    : {report['verdict']}",
        f"traffic    : {traffic['delivered']}/{traffic['sent']} delivered, "
        f"final count {traffic['final_count']}, "
        f"{traffic['duplicate_values']} duplicated values",
        f"invariants : {'held' if invariants['held'] else 'VIOLATED'} "
        f"({len(invariants['violations'])} violations)",
        f"linearizable: {'yes' if report['linearizable'] else 'NO'}",
        "faults     :",
    ]
    for fault in report["faults"]:
        detail = f" [{fault['detail']}]" if fault["detail"] else ""
        lines.append(
            f"  t={fault['time_us'] / 1000.0:8.1f}ms {fault['kind']:<14} "
            f"{fault['target']}{detail}"
        )
    if recovery.get("events"):
        lines.append(
            f"recovery   : p50 {recovery['p50_us'] / 1000.0:.1f}ms  "
            f"p99 {recovery['p99_us'] / 1000.0:.1f}ms  "
            f"max {recovery['max_us'] / 1000.0:.1f}ms "
            f"({recovery['events']} faults, "
            f"{recovery['unrecovered']} unrecovered)"
        )
    interesting = {k: v for k, v in counters.items() if v}
    if interesting:
        lines.append("counters   : " + ", ".join(
            f"{k}={v}" for k, v in sorted(interesting.items())))
    for violation in invariants["violations"][:10]:
        lines.append(
            f"  VIOLATION t={violation['time_us']:.1f}us "
            f"{violation['invariant']}: {violation['detail']}"
        )
    return "\n".join(lines)
