"""One workload, measured in this (fresh) process.

The harness starts one child per workload so workloads cannot pollute each
other's memory high-water mark or caches. ``measure`` is the untraced run
behind the end-to-end metrics; ``trace`` is the separate traced run behind
the per-layer ones.
"""

from __future__ import annotations

import os
import resource
import statistics
from typing import Any, Dict, List, Tuple

from bench import estimator
from bench.metrics import PER_LAYER
from bench.trace import LAYERS, LayerTracer
from bench.workloads import FUZZ_SEED, WORKLOADS, FlowChurn, Outcome, Workload


def _repetition(workload: Workload, inputs: Any,
                setup: List[float]) -> Tuple[List[float], Outcome]:
    """Build from scratch (one more set-up sample), time the region cut
    into its segments, read the outputs."""
    build_wall, built = estimator.timed(lambda: workload.build(inputs))
    setup.append(build_wall)
    segments, ret = estimator.timed_segments(built.run)
    if built.split is not None:
        segments = built.split(ret, sum(segments))
    return segments, built.finish(ret)


def _peak_rss_mb() -> Dict[str, float]:
    """High-water RSS of this process and of its largest waited-for
    descendant (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"self_mb": own, "children_mb": kids}


def _repeat_checks(first: Outcome, others: List[Outcome]) -> Dict[str, bool]:
    """Deterministic outputs must repeat exactly; a difference is a failed
    check, not noise."""
    return {
        "digest_repeats": all(o.digest == first.digest for o in others),
        "counts_repeat": all(
            (o.offered, o.delivered, o.events, o.failed)
            == (first.offered, first.delivered, first.events, first.failed)
            for o in others),
    }


def measure(name: str, seed: int, scale: float, reps: int,
            seconds: float) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, scale)
    # Set-up is sampled in a batch before, once per repetition, and in a
    # batch after, so that one slow phase of the machine cannot cover every
    # sample.
    setup: List[float] = []
    setup_total_s = estimator.SETUP_MIN_TOTAL_S * min(1.0, scale)

    def build() -> Any:
        return workload.build(inputs)

    estimator.sample_setup(build, setup, estimator.SETUP_MIN_SAMPLES // 2,
                           setup_total_s / 2)
    warm_segments, warm = _repetition(workload, inputs, setup)
    segments: List[List[float]] = []
    outcomes: List[Outcome] = []
    while estimator.more_reps_wanted(
            [estimator.rep_wall(rep) for rep in segments], reps, seconds):
        rep_segments, outcome = _repetition(workload, inputs, setup)
        segments.append(rep_segments)
        outcomes.append(outcome)
    estimator.sample_setup(build, setup, estimator.SETUP_MIN_SAMPLES,
                           setup_total_s)
    # Read the high-water mark before the extra checks run: they execute
    # other configurations (the reference path, a single-process campaign)
    # whose memory is not this workload's.
    rss = _peak_rss_mb()

    checks = dict(warm.checks)
    for outcome in outcomes:
        for check, ok in outcome.checks.items():
            checks[check] = checks.get(check, True) and ok
    checks.update(_repeat_checks(warm, outcomes))
    checks["segments_repeat"] = all(
        len(rep) == len(warm_segments) for rep in segments)
    checks.update(workload.extra_checks(inputs, warm))
    correct = all(checks.values())

    runs = [warm] + outcomes
    attempted = sum(o.offered for o in runs)
    failed = attempted if not correct else sum(o.failed for o in runs)
    summary = estimator.summarize(segments)
    # The warm-up repetition's segments compete too: cold ones never win,
    # and it is one more chance for every segment to meet a quiet machine.
    best_s = estimator.segment_floor([warm_segments] + segments)
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "reps": len(segments),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "pkts_per_s": _metric(warm.delivered / best_s, "1/s"),
            "setup_s": _metric(min(setup), "s"),
            "peak_rss_mb": _metric(max(rss.values()), "MB"),
            "events_per_pkt": _metric(warm.events / warm.delivered, "1"),
        },
        "checks": checks,
        "sim_digest": warm.digest,
        "diagnostics": {
            "walls_s": [estimator.rep_wall(rep) for rep in segments],
            "segments_per_rep": len(warm_segments),
            "wall_best_s": best_s,
            "wall_min_s": summary["min_s"],
            "wall_median_s": summary["median_s"],
            "wall_spread": summary["spread"],
            "noisy": summary["noisy"],
            "warmup_wall_s": estimator.rep_wall(warm_segments),
            "setup_samples": len(setup),
            "setup_median_s": statistics.median(setup),
            "rss": rss,
            "offered": warm.offered,
            "delivered": warm.delivered,
            "lost_by_design": warm.lost_by_design,
            "events": warm.events,
            "extra": warm.extra,
        },
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


# -- the traced run ----------------------------------------------------------------


def trace(name: str, seed: int, scale: float, out_dir: str = "") -> Dict[str, Any]:
    """Two untraced repetitions (the faster is the baseline), then one
    repetition under the tracer; per-layer metrics from the three."""
    from repro.observe.trajectory import run_raw_eventloop

    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, scale)

    untraced = []
    for _ in range(2):
        cpu0 = _cpu_s()
        segments, outcome = _repetition(workload, inputs, [])
        untraced.append((estimator.rep_wall(segments), outcome,
                         _cpu_s() - cpu0))
    untraced_wall, plain, cpu_s = min(untraced, key=lambda rep: rep[0])
    others = [outcome for _w, outcome, _c in untraced if outcome is not plain]

    def build() -> Tuple[float, Any]:
        return estimator.timed(lambda: workload.build(inputs))

    tracer = LayerTracer()
    if workload.trace_build_first:
        setup_wall, built = build()
    tracer.install()
    try:
        if not workload.trace_build_first:
            setup_wall, built = build()
        with tracer.region(workload.root_layer):
            ret = built.run(lambda: None)
        traced = built.finish(ret)
    finally:
        tracer.uninstall()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_rows(os.path.join(out_dir, f"{name}.spans.jsonl"))

    region_s = tracer.region_ns / 1e9
    checks = dict(plain.checks)
    checks.update(_repeat_checks(plain, others))
    # Observation is passive: the traced run simulates the same thing.
    checks["trace_passive"] = traced.digest == plain.digest
    checks["self_times_telescope"] = (
        abs(tracer.self_sum_s() - region_s) <= 0.01 * region_s)

    values = _layer_values(tracer, plain, untraced_wall)
    values["traced_region_s"] = region_s
    values["trace_overhead_frac"] = region_s / untraced_wall - 1.0
    values["net.simulator.raw_events_per_s"] = run_raw_eventloop()["events_per_s"]
    if isinstance(workload, FlowChurn):
        values["shard.resolve_s"] = setup_wall
        if workload.workers > 1:
            values.update(_shard_values(
                tracer, workload, inputs, plain, untraced_wall, cpu_s))
    if name == "chaos_fuzz":
        values.update(_chaos_values(plain, untraced_wall, inputs))

    correct = all(checks.values())
    runs = [outcome for _w, outcome, _c in untraced] + [traced]
    attempted = sum(o.offered for o in runs)
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "correct": correct,
        "attempted": attempted,
        "failed": attempted if not correct else sum(o.failed for o in runs),
        "metrics": {n: _metric(values.get(n, 0), unit)
                    for n, unit, _better in PER_LAYER},
        "checks": checks,
        "diagnostics": {
            "untraced_walls_s": [wall for wall, _o, _c in untraced],
            "self_sum_s": tracer.self_sum_s(),
            "span_rows": len(tracer.rows),
        },
    }


def _cpu_s() -> float:
    """CPU seconds of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _layer_values(tracer: LayerTracer, plain: Outcome,
                  untraced_wall: float) -> Dict[str, float]:
    calls = tracer.calls
    total = tracer.registry_total
    values: Dict[str, float] = {
        f"{layer}.self_s": tracer.self_s(layer) for layer in LAYERS}
    transmits = calls("net.links", "Link.transmit")
    app_packets = total("redplane.app_packets")
    hits = misses = invalidations = 0
    for sim in tracer.sims.values():
        if sim.fastpath is not None:
            stats = sim.fastpath.stats()
            hits += stats["flow_cache"]["hits"]
            misses += stats["flow_cache"]["misses"]
            invalidations += sum(stats["invalidations"].values())
    values.update({
        "net.simulator.events": plain.events,
        "net.simulator.schedule_calls": calls("net.simulator", "Simulator.schedule_at"),
        "net.simulator.us_per_event": 1e6 * untraced_wall / plain.events,
        "net.links.transmits": transmits,
        "net.links.schedules_per_transmit":
            tracer.schedules_by_layer.get("net.links", 0) / transmits
            if transmits else 0,
        "net.links.drops": calls("net.links", "Link._drop"),
        "net.packet.byte_size_calls": calls("net.packet", "Packet.byte_size"),
        "net.packet.pack_calls":
            calls("net.packet", "*.to_bytes", "*.from_bytes", "*.pack", "*.unpack"),
        "net.packet.copies": calls("net.packet", "Packet.copy"),
        "net.routing.forwards": calls("net.routing", "L3Switch.forward"),
        "switch.asic.pkts": calls("switch.asic", "SwitchASIC.process"),
        "switch.registers.accesses": calls("switch.registers", "*.access"),
        "switch.control_plane.ops": calls("switch.control_plane", "SwitchControlPlane._execute"),
        "switch.control_plane.punts": calls("switch.control_plane", "SwitchControlPlane.punt"),
        "switch.mirror.copies": calls("switch.mirror", "MirrorSession.mirror"),
        "core.engine.calls": calls("core.engine", "RedPlaneEngine.process"),
        "core.engine.slow_path_frac":
            1.0 - total("redplane.fast_path_forwards") / app_packets
            if app_packets else 0,
        "core.engine.lease_requests": total("redplane.lease_requests"),
        "core.engine.lease_renewals": total("redplane.lease_renewals"),
        "core.engine.retransmissions": total("redplane.retransmissions"),
        "apps.calls": calls("apps", "*.process"),
        "statestore.server.requests": total("store.requests_processed"),
        "statestore.server.leases_granted": total("store.leases_granted"),
        "statestore.server.stale_rejects":
            total("store.updates_rejected_stale"),
        "statestore.server.buffered": total("store.requests_buffered"),
        "statestore.backend.commits": calls("statestore.backend", "*.commit"),
        "statestore.backend.recoveries": total("store.backend.recoveries"),
        "telemetry.trace.emits": calls("telemetry.trace", "Tracer.emit"),
        "telemetry.trace.dropped": sum(
            sim.tracer.records_dropped for sim in tracer.sims.values()),
        "telemetry.metrics.calls": tracer.layers["telemetry.metrics"][0],
        "fastpath.hits": hits,
        "fastpath.misses": misses,
        "fastpath.hit_frac": hits / (hits + misses) if hits + misses else 0,
        "fastpath.invalidations": invalidations,
        "model.check_s": tracer.inclusive_s("model", "check_counter_history"),
    })
    return values


def _shard_values(tracer: LayerTracer, workload: FlowChurn, inputs: Any,
                  plain: Outcome, untraced_wall: float,
                  cpu_s: float) -> Dict[str, float]:
    """``shard.*``: where ``run_sharded`` wall goes, and the same-run,
    same-scenario wall-clock ratio against one process."""
    single_segments, single = _repetition(FlowChurn(1), inputs, [])
    single_wall = estimator.rep_wall(single_segments)
    worker_max = max(plain.extra["worker_walls_s"])
    ghost_s = plain.extra["ghost_wall_s"]
    merge_s = tracer.inclusive_s("shard", "summary_results")
    # Only the ghost runs in this process; every replica executes the
    # shared (ghost) events, the merge subtracts all but one copy.
    ghost_events = sum(s.events_executed for s in tracer.sims.values())
    return {
        "shard.worker_wall_max_s": worker_max,
        "shard.ghost_s": ghost_s,
        "shard.merge_s": merge_s,
        "shard.overhead_s": untraced_wall - worker_max - ghost_s - merge_s,
        "shard.frames": tracer.calls("shard", "FrameConn.send", "FrameConn.recv"),
        "shard.replica_events_ratio":
            (plain.events + workload.workers * ghost_events) / plain.events,
        "shard.cpu_s_total": cpu_s,
        "shard.speedup_vs_single":
            (plain.delivered / untraced_wall) / (single.delivered / single_wall),
    }


def _chaos_values(plain: Outcome, untraced_wall: float,
                  inputs: Any) -> Dict[str, float]:
    from repro.chaos.fuzz import generate_spec

    generate_s, _specs = estimator.timed(
        lambda: [generate_spec(FUZZ_SEED, i) for i in inputs.order])
    return {
        "chaos.campaigns": plain.extra["campaigns"],
        "chaos.campaigns_per_s": plain.extra["campaigns"] / untraced_wall,
        "chaos.violations": plain.extra["violations"],
        "chaos.fuzz.generate_s": generate_s,
    }
