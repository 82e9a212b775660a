"""Per-fault-class resilience scorecard.

A fuzz sweep is more than a pass/fail bit: every run also measures how
the system *coped*. The scorecard pools those measurements by fault
class (the :class:`~repro.workloads.failures.FaultSpec` kind), so a
sweep answers questions like "how long does recovery take after a
switch failover vs. an asymmetric partition?" and "which fault class
triggers the worst resend storms?".

Per class it tracks:

* how many schedules contained the class, how many individual faults
  of it ran, and how many of those schedules ended in a violation;
* the pooled recovery-latency distribution (time from each fault's
  injection to the next successful end-to-end delivery —
  :func:`repro.chaos.runner.recovery_latency_us`, the verdict report's
  measurement, here attributed per class);
* resend storms (the worst and pooled switch-side retransmission count
  over the runs containing the class) and records lost (inputs the
  workload sent that never produced a delivery — permitted under §4.2,
  but a resilience cost worth ranking). Both are per-schedule totals,
  pooled into every class the schedule contains;
* health detections (:mod:`repro.observe.health`), each credited by
  time: to every class with a fault active at the detection's
  ``t_us`` (:meth:`~repro.workloads.failures.FailureSchedule.active_at`).
  A detection with no fault active is a false alarm and is counted in
  the top-level ``health_no_fault_active`` map instead.

The scorecard holds no wall-clock state, so a deterministic sweep
produces a byte-identical scorecard.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from repro.chaos.campaigns import Campaign
from repro.chaos.runner import RunResult, recovery_latency_us
from repro.model.witness import ViolationWitness
from repro.telemetry.metrics import percentile
from repro.workloads.failures import is_clear


class _ClassStats:
    __slots__ = ("schedules", "faults", "violations", "latencies",
                 "unrecovered", "resends", "records_lost", "health")

    def __init__(self) -> None:
        self.schedules = 0
        self.faults = 0
        self.violations = 0
        self.latencies: List[float] = []
        self.unrecovered = 0
        self.resends: List[int] = []
        self.records_lost = 0
        #: detector name -> detections made while this class was active.
        self.health: Counter = Counter()


class Scorecard:
    """Accumulates per-fault-class resilience statistics over runs."""

    def __init__(self) -> None:
        self._classes: Dict[str, _ClassStats] = {}
        self.schedules_run = 0
        self.schedules_violated = 0
        #: detector name -> detections, pooled over the whole sweep (runs
        #: that carried a :class:`repro.observe.HealthMonitor`).
        self.health_detections: Counter = Counter()
        #: detector name -> detections made while no fault was active.
        self.health_no_fault_active: Counter = Counter()

    def add(self, spec: Campaign, result: RunResult,
            witness: ViolationWitness) -> None:
        """Fold one finished run into the scorecard."""
        self.schedules_run += 1
        if witness:
            self.schedules_violated += 1

        deliveries = result.workload.delivery_times()
        resends = int(result.metrics.total("redplane.retransmissions"))
        lost = spec.packets - result.workload.delivered

        seen_classes = set()
        for fault in spec.faults:
            if is_clear(fault.kind):
                continue  # clears end a fault; they are not one
            stats = self._classes.setdefault(fault.kind, _ClassStats())
            stats.faults += 1
            latency = recovery_latency_us(fault.time_us, deliveries)
            if latency is not None:
                stats.latencies.append(latency)
            else:
                stats.unrecovered += 1
            if fault.kind not in seen_classes:
                seen_classes.add(fault.kind)
                stats.schedules += 1
                if witness:
                    stats.violations += 1
                stats.resends.append(resends)
                stats.records_lost += lost

        if result.observe is None or result.observe.health is None:
            return
        for detection in result.observe.health.detections:
            name = str(detection["detector"])
            self.health_detections[name] += 1
            active = {fault.spec_kind for fault in
                      result.schedule.active_at(float(detection["t_us"]))}
            if not active:
                self.health_no_fault_active[name] += 1
            for kind in sorted(active):
                self._classes[kind].health[name] += 1

    def to_dict(self) -> Dict[str, object]:
        classes: Dict[str, object] = {}
        for kind in sorted(self._classes):
            stats = self._classes[kind]
            entry: Dict[str, object] = {
                "schedules": stats.schedules,
                "faults": stats.faults,
                "violations": stats.violations,
                "unrecovered": stats.unrecovered,
                "records_lost": stats.records_lost,
                "max_resend_storm": max(stats.resends, default=0),
                "total_resends": sum(stats.resends),
            }
            if stats.latencies:
                entry["recovery_latency_us"] = {
                    "events": len(stats.latencies),
                    "p50_us": round(percentile(stats.latencies, 50.0), 3),
                    "p90_us": round(percentile(stats.latencies, 90.0), 3),
                    "max_us": round(max(stats.latencies), 3),
                }
            if stats.health:
                entry["health_detections"] = {
                    name: stats.health[name]
                    for name in sorted(stats.health)
                }
            classes[kind] = entry
        return {
            "schedules_run": self.schedules_run,
            "schedules_violated": self.schedules_violated,
            "health_detections": dict(sorted(self.health_detections.items())),
            "health_no_fault_active":
                dict(sorted(self.health_no_fault_active.items())),
            "fault_classes": classes,
        }

    def render(self) -> str:
        """Human-readable scorecard table."""
        return self.render_dict(self.to_dict())

    @staticmethod
    def render_dict(d: Dict[str, object]) -> str:
        """Render a :meth:`to_dict` payload (e.g. from a saved report).

        Output ordering is fully deterministic regardless of the input
        dict's insertion order: fault classes and health detectors are
        sorted here, not trusted from the payload, and every float is
        formatted through an explicit ``.1f``/``.3f`` spec (never
        ``repr``), so two renders of equal payloads are byte-identical.
        """
        lines = [
            f"schedules  : {d['schedules_run']} run, "
            f"{d['schedules_violated']} violated",
            f"{'fault class':<26} {'scheds':>6} {'faults':>6} "
            f"{'viol':>5} {'rec p50':>9} {'rec max':>9} "
            f"{'resends':>8} {'lost':>5}",
        ]
        classes = d["fault_classes"]
        for kind in sorted(classes):  # type: ignore[arg-type]
            entry = classes[kind]  # type: ignore[index]
            rec = entry.get("recovery_latency_us", {})
            p50 = f"{rec['p50_us'] / 1000.0:.1f}ms" if rec else "-"
            mx = f"{rec['max_us'] / 1000.0:.1f}ms" if rec else "-"
            lines.append(
                f"{kind:<26} {entry['schedules']:>6} {entry['faults']:>6} "
                f"{entry['violations']:>5} {p50:>9} {mx:>9} "
                f"{entry['max_resend_storm']:>8} {entry['records_lost']:>5}"
            )
        for label, key in (("health     : ", "health_detections"),
                           ("no fault   : ", "health_no_fault_active")):
            health = d.get(key) or {}
            if health:
                lines.append(label + ", ".join(
                    f"{name}={health[name]}" for name in sorted(health)))
        return "\n".join(lines)
