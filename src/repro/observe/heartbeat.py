"""Periodic campaign health snapshots as newline-delimited JSON.

A :class:`HeartbeatEmitter` rides the simulator's drain loop as its
:attr:`~repro.net.simulator.Simulator.on_event` hook (it is *called*,
never scheduled — it puts no events on the queue, so attaching it cannot
perturb event sequence numbers or anything else ordering-sensitive).
After each executed event it checks whether the simulated clock crossed
the next heartbeat boundary and, if so, emits one snapshot of the run's
health:

* simulated time, events executed, pending events, and the event rate
  over the last interval in events per simulated millisecond;
* queue depths — summed link transmit backlogs, circulating mirror
  copies, switch buffer occupancy;
* protocol counters — retransmissions, acks, lease requests, store
  recoveries, WAL records replayed, link drops;
* campaign context from pluggable ``providers`` (delivered count,
  active injected faults, ...).

Every field is a **pure function of simulator state** — no wall clock,
no randomness, no allocation-order artifacts — so two same-seed runs
produce byte-identical snapshot streams, and an A/B pair (fastpath
on/off) that keeps the bit-identity contract produces identical streams
too. ``tests/test_observe.py`` enforces it.

Snapshots append to an in-memory list and, when ``path`` is given, to an
NDJSON sink (one canonically-serialized JSON object per line, flushed
as written) that ``repro.tools watch`` tails live.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

#: Heartbeat cadence default: one snapshot per 10 simulated ms.
DEFAULT_INTERVAL_US = 10_000.0

#: Metric totals every snapshot carries, name -> registry query.
_COUNTER_FIELDS = (
    ("retransmissions", "redplane.retransmissions"),
    ("acks_received", "redplane.acks_received"),
    ("lease_requests", "redplane.lease_requests"),
    ("store_recoveries", "store.backend.recoveries"),
    ("wal_replayed", "store.backend.wal_replayed"),
    ("link_drops", "link.drops"),
)


def snapshot_json(snap: Dict[str, object]) -> str:
    """Canonical one-line serialization (sorted keys, no whitespace)."""
    return json.dumps(snap, sort_keys=True, separators=(",", ":"))


def read_heartbeats(path: str) -> List[Dict[str, object]]:
    """Load an NDJSON heartbeat file back into snapshot dicts."""
    snaps: List[Dict[str, object]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                snaps.append(json.loads(line))
    return snaps


class HeartbeatEmitter:
    """Emits health snapshots at simulated-time boundaries.

    Parameters
    ----------
    sim:
        The simulator whose state is snapshotted.
    interval_us:
        Boundary spacing in simulated microseconds. A boundary with no
        events after it emits nothing (the state could not have changed);
        a burst of boundaries crossed by one long event gap collapses to
        a single snapshot at the first event past them.
    path:
        Optional NDJSON sink, written as snapshots happen.
    links:
        Links whose transmit backlog the queue-depth field sums.
    providers:
        Extra snapshot fields: name -> zero-arg callable returning a
        JSON-safe value. Every provider must itself be a pure function
        of simulator state, or stream identity breaks.
    """

    def __init__(
        self,
        sim,
        interval_us: float = DEFAULT_INTERVAL_US,
        path: Optional[str] = None,
        links: Optional[list] = None,
        providers: Optional[Dict[str, Callable[[], object]]] = None,
    ) -> None:
        if interval_us <= 0:
            raise ValueError(f"heartbeat interval must be > 0 ({interval_us})")
        self.sim = sim
        self.interval_us = float(interval_us)
        self.links = list(links) if links else []
        self.providers = dict(providers or {})
        self.snapshots: List[Dict[str, object]] = []
        self._monitors: List[Callable[[Dict[str, object]], None]] = []
        self._next_due = self.interval_us
        self._last_t = 0.0
        self._last_events = 0
        self._sink = open(path, "w", encoding="utf-8") if path else None
        self._ctr = sim.metrics.counter("observe.heartbeats")

    # -- wiring ---------------------------------------------------------------

    def add_monitor(self, fn: Callable[[Dict[str, object]], None]) -> None:
        """Call ``fn(snapshot)`` after each emission (health detectors)."""
        self._monitors.append(fn)

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    # -- the drain-loop hook ---------------------------------------------------

    def tick(self, now: float) -> None:
        """``Simulator.on_event``: called after every executed event."""
        if now < self._next_due:
            return
        snap = self.snapshot()
        self.snapshots.append(snap)
        self._ctr.inc()
        if self._sink is not None:
            self._sink.write(snapshot_json(snap) + "\n")
            # ``watch -f`` in another process must see it now, not at
            # close(); one flush per heartbeat interval.
            self._sink.flush()
        self._last_t = now
        self._last_events = self.sim.events_executed
        while self._next_due <= now:
            self._next_due += self.interval_us
        for fn in self._monitors:
            fn(snap)

    # -- snapshot content ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """One health snapshot; a pure function of simulator state. Costs
        the instruments named here plus the links, not the registry's size."""
        sim = self.sim
        metrics = sim.metrics
        dt_ms = (sim.now - self._last_t) / 1000.0
        d_events = sim.events_executed - self._last_events
        counters = {
            name: int(metrics.total(metric))
            for name, metric in _COUNTER_FIELDS
        }
        snap: Dict[str, object] = {
            "schema": 1,
            "t_us": sim.now,
            "events": sim.events_executed,
            "pending": sim.pending_events,
            "events_per_sim_ms":
                round(d_events / dt_ms, 3) if dt_ms > 0 else 0.0,
            "queues": {
                "link_backlog_us":
                    round(sum(l.backlog_us() for l in self.links), 3),
                "mirror_copies": int(metrics.total("mirror.active_copies")),
                "buffer_bytes":
                    int(metrics.total("switch.buffer_occupancy_bytes")),
            },
            "counters": counters,
        }
        for name, provider in sorted(self.providers.items()):
            snap[name] = provider()
        return snap
