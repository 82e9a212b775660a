"""Typed, sim-timestamped trace records in a bounded ring buffer.

A :class:`Tracer` is owned by the simulator and shared by every component
of a run, and the hot paths — link transmits, protocol transitions —
trace unconditionally. A record is one flat row, ``(keys, ts, type,
*values)``, whose field *names* are one tuple shared by every record of
the same shape: a retained hop record costs ≈ 142 bytes with its
timestamp and values (≈ 174 as a record object plus a value tuple,
≈ 310 with a dict per record; tracemalloc, tested in
tests/test_telemetry.py), and a hot site passes :meth:`Tracer.emit` a
literal key tuple and a value tuple, so emitting fills no kwargs dict.
The ring bounds memory, and the sinks in :attr:`Tracer.sinks` see every
record as it is emitted (:class:`JsonlSink` streams them to disk for
offline analysis; ``python -m repro.tools trace`` prints the tail). A
tracer built with ``maxlen=0`` keeps no ring: it still counts every
emit and hands each record to the sinks, and with no sink it builds no
record at all (the shard runner's simulators, whose rings nobody reads).

Record timestamps are *simulated* microseconds, never wall clock, and
every field comes from deterministic run state — so two runs with the
same seed produce byte-identical trace streams (tested).

The trace vocabulary (see docs/TELEMETRY.md for the full field schema):

=====================  ====================================================
type                   emitted when
=====================  ====================================================
``packet.send``        a packet enters a link direction (even if dropped)
``packet.deliver``     a packet reaches the node at the far end of a link
``packet.drop``        a packet dies (gray loss, down link, dead node)
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
``store.recover``      a crashed store rebuilds records from its backend
``fault.inject``       a chaos/failure schedule applies an injected fault
``fault.clear``        an injected fault is lifted
``health.detect``      a rolling health detector trips over the heartbeat
                       stream; ``detector`` names it (see
                       :mod:`repro.observe.health`)
=====================  ====================================================
"""

from __future__ import annotations

import json
from collections import deque
from operator import itemgetter
from typing import (Any, Callable, Deque, Dict, Iterator, List, Optional,
                    Tuple)

PACKET_SEND = "packet.send"
PACKET_DELIVER = "packet.deliver"
PACKET_DROP = "packet.drop"
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
STORE_RECOVER = "store.recover"
FAULT_INJECT = "fault.inject"
FAULT_CLEAR = "fault.clear"
HEALTH_DETECT = "health.detect"


class TraceRecord(tuple):
    """One trace event: a simulated timestamp, a type, and typed fields.

    A record is one flat row, ``(keys, ts, type, *values)``: ``keys``,
    the field names, is shared by every record of one shape (a row
    site's literal tuple, or the one :meth:`Tracer.emit` interned), and
    the values follow in the same order. ``ts``, ``type``, ``keys`` and
    ``values`` are read through C getters; ``fields`` builds the dict
    when read, and :meth:`items` walks the pairs without one. A reader
    on a timed path slices the row instead: ``record[1:]`` is
    ``(ts, type, *values)``.

    A record is built one of two ways, to the same row:
    :meth:`Tracer.emit` calls ``tuple.__new__`` on the row it concatenated,
    so the hot path enters no constructor frame, and the cold builders
    (:meth:`from_fields`, the shard merge, tests) call
    ``TraceRecord(ts, type, keys, values)``.
    """

    __slots__ = ()

    def __new__(cls, ts: float, type: str, keys: Tuple[str, ...],
                values: Tuple[Any, ...]) -> "TraceRecord":
        return tuple.__new__(cls, (keys, ts, type) + tuple(values))

    keys = property(itemgetter(0))
    ts = property(itemgetter(1))
    type = property(itemgetter(2))
    values = property(itemgetter(slice(3, None)))

    @classmethod
    def from_fields(cls, ts: float, type: str,
                    fields: Dict[str, Any]) -> "TraceRecord":
        return cls(ts, type, tuple(fields), tuple(fields.values()))

    @property
    def fields(self) -> Dict[str, Any]:
        """A new ``{name: value}`` dict, in emission order."""
        return dict(zip(self[0], self[3:]))

    def items(self) -> Iterator[Tuple[str, Any]]:
        """The ``(name, value)`` pairs, in emission order."""
        return zip(self[0], self[3:])

    def __getnewargs__(self) -> Tuple[Any, ...]:  # type: ignore[override]
        # pickle and copy rebuild through __new__'s four arguments.
        return (self[1], self[2], self[0], self[3:])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            # A plain tuple would otherwise be compared as a row.
            return False if isinstance(other, tuple) else NotImplemented
        return ((self.ts, self.type, self.fields)
                == (other.ts, other.type, other.fields))

    def __ne__(self, other: object) -> bool:
        # Not tuple's row comparison: the negation of __eq__.
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"TraceRecord(ts={self.ts!r}, type={self.type!r}, "
                f"fields={self.fields!r})")

    def to_json(self) -> str:
        return json.dumps(
            {"ts": self.ts, "type": self.type, "fields": self.fields},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "TraceRecord":
        raw = json.loads(line)
        return cls.from_fields(raw["ts"], raw["type"], raw.get("fields", {}))


#: How :meth:`Tracer.emit` makes a record from its row: one C call.
_new_record = tuple.__new__

#: Where a ring-less tracer appends a record it built for its sinks:
#: one shared zero-length deque, so appending keeps nothing.
_DISCARD: Deque[TraceRecord] = deque(maxlen=0)


class Tracer:
    """Bounded trace ring plus a list of sinks.

    Parameters
    ----------
    clock:
        Returns the current *simulated* time; the simulator passes its own
        ``now``. Wall-clock time must never enter a record.
    maxlen:
        Ring capacity (``None``: unbounded). Old records fall off the
        front; ``records_emitted`` keeps counting so truncation is
        detectable. ``0`` keeps no ring: :meth:`tail` is empty,
        ``records_dropped`` equals ``records_emitted``, the sinks still
        see every record, and an emit with no sink attached only counts.
    """

    def __init__(self, clock: Callable[[], float],
                 maxlen: Optional[int] = 65536) -> None:
        self._clock = clock
        self.maxlen = maxlen
        self.records_emitted = 0
        self._ring: Optional[Deque[TraceRecord]] = (
            None if maxlen == 0 else deque(maxlen=maxlen))
        #: One key tuple per keyword shape :meth:`emit` has seen, so its
        #: records share it as a row site's records share its literal.
        self._shapes: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        #: Callables handed each record, in order, *after* it is appended
        #: to the ring (if any); anything may join (the identity hasher,
        #: the shard recorder, a :class:`JsonlSink`). A sink must not
        #: emit records itself.
        self.sinks: List[Callable[[TraceRecord], None]] = []

    def emit(self, type_: str, keys: Optional[Tuple[str, ...]] = None,
             values: Optional[Tuple[Any, ...]] = None, /,
             **fields: Any) -> None:
        """Record one event at the current simulated time.

        Cold sites pass the fields as keywords, ``emit(T, uid=1, ...)``,
        and the record shares a key tuple interned per shape. A hot site
        passes them as a row, ``emit(T, ("uid", ...), (1, ...))``: the
        literal key tuple is a compiled constant, so no key tuple is built.
        Either way the record is one row, ``(keys, ts, type, *values)``,
        made in one C call; the value tuple and the ``fields`` dict every
        call of this method gets are freed on return, so the row is all a
        record keeps of its own. One method for both, so every record passes
        through ``emit``. Without a ring and without a sink nothing can
        read the record, so it is counted and not built.
        """
        self.records_emitted += 1
        ring = self._ring
        if ring is None:
            if not self.sinks:
                return
            ring = _DISCARD
        if keys is None:
            keys = tuple(fields)
            keys = self._shapes.setdefault(keys, keys)
            values = tuple(fields.values())
        record = _new_record(TraceRecord,
                             (keys, self._clock(), type_) + values)
        ring.append(record)
        if self.sinks:  # no iterator on the usual sink-less hot path
            for sink in self.sinks:
                sink(record)

    # -- reading --------------------------------------------------------------

    def tail(self, n: Optional[int] = None) -> List[TraceRecord]:
        """The most recent ``n`` records (all retained records if None)."""
        if self._ring is None or n is not None and n <= 0:
            return []
        if n is None or n >= len(self._ring):
            return list(self._ring)
        return list(self._ring)[-n:]

    @property
    def records_dropped(self) -> int:
        """Emitted records no longer retained (ring truncation)."""
        return self.records_emitted - len(self)

    def __len__(self) -> int:
        return 0 if self._ring is None else len(self._ring)


class JsonlSink:
    """A sink writing each record to ``path`` as one JSON object per line;
    unlike the ring it never truncates. :meth:`close` when done."""

    def __init__(self, path: str) -> None:
        self._fh = open(path, "w")

    def __call__(self, record: TraceRecord) -> None:
        self._fh.write(record.to_json() + "\n")

    def close(self) -> None:
        self._fh.close()


def read_jsonl(path: str) -> List[TraceRecord]:
    """Load a JSONL trace file back into records (round-trip tested)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(TraceRecord.from_json(line))
    return records
