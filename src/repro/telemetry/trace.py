"""Typed, sim-timestamped trace records in a bounded ring buffer.

A :class:`Tracer` is owned by the simulator and shared by every component
of a run. Emitting is cheap (one object + one deque append) so the hot
paths — link transmits, protocol transitions — trace unconditionally; the
ring bounds memory and the optional JSONL sink streams records to disk
for offline analysis (``python -m repro.tools trace`` prints the tail).

Record timestamps are *simulated* microseconds, never wall clock, and
every field comes from deterministic run state — so two runs with the
same seed produce byte-identical trace streams (tested).

The trace vocabulary (see docs/TELEMETRY.md for the full field schema):

=====================  ====================================================
type                   emitted when
=====================  ====================================================
``packet.send``        a packet enters a link direction (even if dropped)
``packet.deliver``     a packet reaches the node at the far end of a link
``packet.drop``        a packet dies (loss, down link, queue, dead node)
``packet.reorder``     a link delays a packet past its successors
``packet.dup``         an impaired link duplicates a packet on the wire
``rp.request``         the protocol engine creates one request packet
``rp.ack``             an acknowledged request copy is released (with RTT)
``lease.request``      a switch asks the store for a flow's lease
``lease.grant``        a lease (plus migrated state) is installed
``lease.renew``        an explicit renewal is sent
``lease.expiry``       a switch notices its own lease has lapsed
``retransmit``         a circulating mirror copy times out and resends
``snapshot``           one snapshot slot value ships to the store
``failover``           a store chain is rewired around a dead node
``chain.repair``       a spliced chain head re-propagates unacked updates
``store.recover``      a crashed store rebuilds records from its backend
``fault.inject``       a chaos/failure schedule applies an injected fault
``fault.clear``        an injected fault is lifted
``health.*``           a rolling health detector trips over the heartbeat
                       stream (see :mod:`repro.observe.health`)
=====================  ====================================================
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, TextIO

PACKET_SEND = "packet.send"
PACKET_DELIVER = "packet.deliver"
PACKET_DROP = "packet.drop"
PACKET_REORDER = "packet.reorder"
PACKET_DUP = "packet.dup"
RP_REQUEST = "rp.request"
RP_ACK = "rp.ack"
LEASE_REQUEST = "lease.request"
LEASE_GRANT = "lease.grant"
LEASE_RENEW = "lease.renew"
LEASE_EXPIRY = "lease.expiry"
RETRANSMIT = "retransmit"
SNAPSHOT = "snapshot"
FAILOVER = "failover"
CHAIN_REPAIR = "chain.repair"
STORE_RECOVER = "store.recover"
FAULT_INJECT = "fault.inject"
FAULT_CLEAR = "fault.clear"
HEALTH_RESEND_STORM = "health.resend_storm"
HEALTH_QUEUE_GROWTH = "health.queue_growth"
HEALTH_SLO_BURN = "health.slo_burn"
HEALTH_WAL_STALL = "health.wal_stall"


@dataclass(slots=True)
class TraceRecord:
    """One trace event: a type, a simulated timestamp, and typed fields.

    ``slots=True`` because hot paths allocate one per wire event.
    """

    ts: float
    type: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"ts": self.ts, "type": self.type, "fields": self.fields},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "TraceRecord":
        raw = json.loads(line)
        return cls(ts=raw["ts"], type=raw["type"], fields=raw.get("fields", {}))


class Tracer:
    """Bounded trace ring with an optional JSONL sink.

    Parameters
    ----------
    clock:
        Returns the current *simulated* time; the simulator passes its own
        ``now``. Wall-clock time must never enter a record.
    maxlen:
        Ring capacity (``None``: unbounded). Old records fall off the
        front; ``records_emitted`` keeps counting so truncation is
        detectable.
    """

    def __init__(self, clock: Callable[[], float],
                 maxlen: Optional[int] = 65536) -> None:
        self._clock = clock
        self.maxlen = maxlen
        self.records_emitted = 0
        self._ring: Deque[TraceRecord] = deque(maxlen=maxlen)
        self._sink: Optional[TextIO] = None
        #: Optional observer called with each record *after* it is
        #: appended to the ring (shard mode records origin sidecars
        #: through this). Must not emit records itself.
        self.on_emit: Optional[Callable[[TraceRecord], None]] = None

    def emit(self, type_: str, **fields: Any) -> None:
        """Record one event at the current simulated time."""
        record = TraceRecord(self._clock(), type_, fields)
        self.records_emitted += 1
        self._ring.append(record)
        if self._sink is not None:
            self._sink.write(record.to_json() + "\n")
        if self.on_emit is not None:
            self.on_emit(record)

    # -- reading --------------------------------------------------------------

    def tail(self, n: Optional[int] = None) -> List[TraceRecord]:
        """The most recent ``n`` records (all retained records if None)."""
        if n is not None and n <= 0:
            return []
        if n is None or n >= len(self._ring):
            return list(self._ring)
        return list(self._ring)[-n:]

    def records_of(self, type_: str) -> List[TraceRecord]:
        return [r for r in self._ring if r.type == type_]

    @property
    def records_dropped(self) -> int:
        """Emitted records no longer retained (ring truncation)."""
        return self.records_emitted - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    # -- JSONL sink ------------------------------------------------------------

    def open_sink(self, path: str) -> None:
        """Stream every future record to ``path`` as one JSON object/line."""
        self.close_sink()
        self._sink = open(path, "w")

    def close_sink(self) -> None:
        if self._sink is not None:
            self._sink.close()
        self._sink = None

    def flush_to(self, path: str) -> int:
        """Write the currently retained records to ``path``; returns count."""
        with open(path, "w") as fh:
            for record in self._ring:
                fh.write(record.to_json() + "\n")
        return len(self._ring)


def read_jsonl(path: str) -> List[TraceRecord]:
    """Load a JSONL trace file back into records (round-trip tested)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(TraceRecord.from_json(line))
    return records
