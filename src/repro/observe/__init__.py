"""``repro.observe`` — the observability layer.

Two parts, one contract:

* :mod:`repro.observe.heartbeat` — periodic NDJSON health snapshots
  whose content is a pure function of simulator state
  (``repro.tools watch`` tails them live).
* :mod:`repro.observe.health` — two rolling detectors over the
  heartbeat stream (resend storms, recovery-SLO burn) raising
  schema-registered ``health.detect`` trace events that the chaos
  scorecard pools.

The contract: **observation never changes the run.** An observed
campaign's events, records and full metric snapshot are byte-identical
to the unobserved run, and so is its trace stream minus the
``health.detect`` events when detectors are armed. Observing adds no
metric. The heartbeat emitter is called from the drain loop
(:attr:`~repro.net.simulator.Simulator.on_event`) rather than
scheduled, so it cannot perturb event sequence numbers, and nothing
here reads the wall clock: where wall time goes is answered by
``python -m bench run --trace 1`` (docs/TELEMETRY.md).

:func:`attach` builds an emitter (and, with ``health=True``, a monitor),
sets ``sim.on_event`` to the emitter's ``tick`` and returns both as an
:class:`Observe`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.observe.health import HealthMonitor
from repro.observe.heartbeat import (
    DEFAULT_INTERVAL_US,
    HeartbeatEmitter,
    read_heartbeats,
)

__all__ = [
    "Observe",
    "ObserveOptions",
    "HeartbeatEmitter",
    "HealthMonitor",
    "attach",
    "read_heartbeats",
]


@dataclass(frozen=True)
class ObserveOptions:
    """What a campaign run should observe (``run_campaign(observe=...)``).

    Everything defaults off; the chaos runner wires providers (delivered
    count, active faults) and the deployment's links in when building
    the live bundle from these options.
    """

    heartbeat_path: Optional[str] = None
    health: bool = False

    @property
    def enabled(self) -> bool:
        return bool(self.heartbeat_path or self.health)


class Observe:
    """What :func:`attach` built: the emitter behind ``sim.on_event`` and
    the :class:`HealthMonitor` fed by it (``None`` unless ``health=True``)."""

    __slots__ = ("heartbeat", "health")

    def __init__(self, heartbeat: HeartbeatEmitter,
                 health: Optional[HealthMonitor] = None) -> None:
        self.heartbeat = heartbeat
        self.health = health

    def close(self) -> None:
        """Close the heartbeat NDJSON file, if one was opened."""
        self.heartbeat.close()


def attach(
    sim,
    heartbeat_path: Optional[str] = None,
    heartbeat_interval_us: float = DEFAULT_INTERVAL_US,
    links: Optional[list] = None,
    providers: Optional[dict] = None,
    health: bool = False,
) -> Observe:
    """Start heartbeats on ``sim``: one emitter, called after every event.

    ``health=True`` arms the two health detectors over the snapshot
    stream. Returns the bundle; when the run ends call ``bundle.close()``
    and set ``sim.on_event = None`` (the campaign runner does both).
    """
    heartbeat = HeartbeatEmitter(sim, interval_us=heartbeat_interval_us,
                                 path=heartbeat_path, links=links,
                                 providers=providers)
    monitor = None
    if health:
        monitor = HealthMonitor(sim)
        heartbeat.add_monitor(monitor.observe)
    sim.on_event = heartbeat.tick
    return Observe(heartbeat, monitor)
