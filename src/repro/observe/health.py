"""Rolling health detectors over the heartbeat metric stream.

Detectors consume the snapshot stream a
:class:`~repro.observe.heartbeat.HeartbeatEmitter` produces and raise a
schema-registered ``health.detect`` trace event when a rolling condition
trips — the campaign-health analogue of the paper's §7 recovery-time and
broken-connection measurements, watching the run *while it happens*:

================  ==========================================================
``detector``      fires when
================  ==========================================================
``resend_storm``  retransmissions grew by >= :data:`RESEND_STORM_THRESHOLD`
                  within one heartbeat interval
``slo_burn``      an injected fault is active and no end-to-end delivery
                  has landed for longer than :data:`RECOVERY_SLO_US`
================  ==========================================================

Each detector earns its place with a campaign it fires on and a
fault-free copy of it that stays silent (``tests/test_observe.py``).

Each detector is edge-triggered: it fires once when its condition first
becomes true and re-arms only after the condition clears, so a sustained
storm produces one event per episode, not one per snapshot. Detectors
are pure functions of the snapshot series — a deterministic run yields a
deterministic detection list (and byte-identical verdicts/scorecards).

The chaos scorecard consumes the detection list
(:meth:`repro.chaos.scorecard.Scorecard.add` credits each detection to
the fault classes active at its ``t_us``), so fuzz sweeps rank fault
classes by the health events they trigger.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.telemetry import trace as tt

#: One detection: (value, threshold) — what was seen vs what trips.
Firing = Tuple[float, float]

#: Retransmissions within one heartbeat interval that make a storm.
RESEND_STORM_THRESHOLD = 20

#: Delivery stall, with a fault active, that burns the recovery SLO.
RECOVERY_SLO_US = 200_000.0


class ResendStormDetector:
    """Retransmission burst: delta >= threshold within one interval."""

    name = "resend_storm"

    def __init__(self) -> None:
        self._last: Optional[int] = None
        self._armed = True

    def update(self, snap: Dict[str, object]) -> Optional[Firing]:
        resends = int(snap["counters"]["retransmissions"])
        last, self._last = self._last, resends
        if last is None:
            return None
        delta = resends - last
        if delta >= RESEND_STORM_THRESHOLD:
            if self._armed:
                self._armed = False
                return (float(delta), float(RESEND_STORM_THRESHOLD))
            return None
        self._armed = True
        return None


class RecoverySloDetector:
    """SLO burn: a fault is active and deliveries stalled past the SLO.

    Needs the ``delivered`` and ``faults_active`` provider fields the
    chaos runner wires in; snapshots without them are ignored (the
    detector cannot judge a run it cannot see).
    """

    name = "slo_burn"

    def __init__(self) -> None:
        self._last_delivered: Optional[int] = None
        self._progress_t = 0.0
        self._armed = True

    def update(self, snap: Dict[str, object]) -> Optional[Firing]:
        if "delivered" not in snap or "faults_active" not in snap:
            return None
        delivered = int(snap["delivered"])
        t = float(snap["t_us"])
        if self._last_delivered is None or delivered > self._last_delivered:
            self._progress_t = t
            self._armed = True
        self._last_delivered = delivered
        stalled_us = t - self._progress_t
        if int(snap["faults_active"]) > 0 and stalled_us > RECOVERY_SLO_US:
            if self._armed:
                self._armed = False
                return (stalled_us, RECOVERY_SLO_US)
        return None


class HealthMonitor:
    """Runs both detectors over a heartbeat stream; raises ``health.detect``.

    Attach with ``emitter.add_monitor(monitor.observe)``. A detection is
    a trace event (timestamped with the snapshot's simulated time — the
    tracer clock *is* the simulator clock when observing live) and an
    entry in the :attr:`detections` list the scorecard pools.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.detectors = (ResendStormDetector(), RecoverySloDetector())
        self.detections: List[Dict[str, object]] = []

    def observe(self, snap: Dict[str, object]) -> None:
        for det in self.detectors:
            fired = det.update(snap)
            if fired is None:
                continue
            value, threshold = fired
            self.detections.append({
                "t_us": snap["t_us"],
                "detector": det.name,
                "value": round(value, 3),
                "threshold": threshold,
            })
            self.sim.tracer.emit(tt.HEALTH_DETECT, detector=det.name,
                                 value=round(value, 3), threshold=threshold)

    def counts(self) -> Dict[str, int]:
        """Detection counts per detector name (sorted keys)."""
        out: Dict[str, int] = {}
        for d in self.detections:
            name = str(d["detector"])
            out[name] = out.get(name, 0) + 1
        return dict(sorted(out.items()))
