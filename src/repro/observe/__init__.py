"""``repro.observe`` — the observability layer.

Three parts, one contract:

* :mod:`repro.observe.profiler` — a deterministic self-profiler hooked
  into the simulator's drain loop: exact per-handler and per-subsystem
  event counts with wall-time attribution, a component table, and
  collapsed-stack flamegraph output (``repro.tools profile``).
* :mod:`repro.observe.heartbeat` — periodic NDJSON health snapshots
  whose content is a pure function of simulator state
  (``repro.tools watch`` tails them live).
* :mod:`repro.observe.health` — rolling detectors over the heartbeat
  stream (resend storms, queue growth, recovery-SLO burn, WAL-replay
  stalls) raising schema-registered ``health.*`` trace events that the
  chaos scorecard pools.

The contract: **observation never changes the run.** An observed
campaign's events, trace stream, records, and metrics (minus the
``observe.*`` namespace, and minus ``health.*`` trace events when
detectors are armed) are byte-identical to the unobserved run. The
profiler reads the wall clock for its own accounting only; the
heartbeat emitter is called from the drain loop rather than scheduled,
so it cannot perturb event sequence numbers.

:class:`Observe` is the bundle the simulator's
:meth:`~repro.net.simulator.Simulator.attach_observe` consumes;
:func:`attach` builds and attaches one in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.observe.health import HealthMonitor, default_detectors
from repro.observe.heartbeat import HeartbeatEmitter, read_heartbeats
from repro.observe.profiler import Profiler

__all__ = [
    "Observe",
    "ObserveOptions",
    "Profiler",
    "HeartbeatEmitter",
    "HealthMonitor",
    "attach",
    "default_detectors",
    "read_heartbeats",
]


@dataclass(frozen=True)
class ObserveOptions:
    """What a campaign run should observe (``run_campaign(observe=...)``).

    Everything defaults off; the chaos runner wires providers (delivered
    count, active faults, stores down) and the deployment's links in
    when building the live bundle from these options.
    """

    profile: bool = False
    heartbeat: bool = False
    heartbeat_interval_us: float = 10_000.0
    heartbeat_path: Optional[str] = None
    health: bool = False

    @property
    def wants_heartbeat(self) -> bool:
        return bool(self.heartbeat or self.heartbeat_path or self.health)

    @property
    def enabled(self) -> bool:
        return bool(self.profile or self.wants_heartbeat)


class Observe:
    """What the simulator's observed drain loop consults per event.

    ``profiler`` is ``None`` or a :class:`Profiler`; ``heartbeat_tick``
    is ``None`` or a callable taking the current simulated time (a
    :meth:`HeartbeatEmitter.tick` bound method, usually). Keeping the
    two as plain attributes lets the drain loop hoist them into locals
    once per drain.
    """

    __slots__ = ("profiler", "heartbeat", "heartbeat_tick", "health")

    def __init__(
        self,
        profiler: Optional[Profiler] = None,
        heartbeat: Optional[HeartbeatEmitter] = None,
        health: Optional[HealthMonitor] = None,
    ) -> None:
        self.profiler = profiler
        self.heartbeat = heartbeat
        self.heartbeat_tick: Optional[Callable[[float], None]] = (
            heartbeat.tick if heartbeat is not None else None
        )
        self.health = health

    def close(self) -> None:
        """Flush and close owned sinks (the heartbeat NDJSON file)."""
        if self.heartbeat is not None:
            self.heartbeat.close()


def attach(
    sim,
    profile: bool = True,
    heartbeat_path: Optional[str] = None,
    heartbeat_interval_us: Optional[float] = None,
    links: Optional[list] = None,
    providers: Optional[dict] = None,
    health: bool = False,
) -> Observe:
    """Build an :class:`Observe` bundle for ``sim`` and attach it.

    ``health=True`` arms the default detector set over the heartbeat
    stream (requires a heartbeat; detectors without snapshots see
    nothing). Returns the bundle; call ``bundle.close()`` (or let the
    campaign runner do it) when the run ends.
    """
    profiler = Profiler() if profile else None
    heartbeat = None
    monitor = None
    if heartbeat_path is not None or heartbeat_interval_us is not None \
            or health:
        kwargs = {}
        if heartbeat_interval_us is not None:
            kwargs["interval_us"] = heartbeat_interval_us
        heartbeat = HeartbeatEmitter(sim, path=heartbeat_path, links=links,
                                     providers=providers, **kwargs)
        if health:
            monitor = HealthMonitor(sim)
            heartbeat.add_monitor(monitor.observe)
    bundle = Observe(profiler=profiler, heartbeat=heartbeat, health=monitor)
    sim.attach_observe(bundle)
    return bundle
