"""Causal packet-lifecycle spans reconstructed from the trace stream.

Every packet that touches a wire (and every injected/generated packet)
carries a run-unique correlation id — ``meta["uid"]``, allocated by
:meth:`repro.net.simulator.Simulator.new_uid` in event-execution order —
and every derived packet records its ancestor in ``meta["parent_uid"]``:
mirror copies, wire duplicates, retransmissions, state-store replies,
chain updates, and reinjected piggybacked outputs all point back at the
packet that caused them. The trace records emitted along the way carry
those ids, so the full causal tree of a packet's lifecycle can be
rebuilt offline from the trace ring or a JSONL sink.

A :class:`PacketSpan` is everything one uid did: its wire hops, its
protocol events, its children, and whether it terminated. The wire-level
bookkeeping is per *hop*: each ``packet.send`` (or ``packet.dup``, the
duplicate's first wire contact) must be matched by exactly one
``packet.deliver`` or ``packet.drop`` on that hop. A span whose origin
events outnumber its terminals is *unterminated* (still in flight, or
the run ended mid-wire); more terminals than origins is *orphaned* and
is the signature of ring truncation (the send fell off the front of the
ring — re-run with a JSONL sink, which never truncates).

Spans with no wire events at all are *internal*: packets consumed inside
a switch (reinjected piggybacks, pktgen output) that exist only as the
``parent`` of other spans. They are materialized as placeholders so the
causal tree stays connected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.telemetry import trace as tt
from repro.telemetry.trace import TraceRecord, read_jsonl

#: Trace types whose ``uid`` field marks a span's first wire contact.
ORIGIN_TYPES = frozenset({tt.PACKET_SEND, tt.PACKET_DUP})
#: Trace types whose ``uid`` field terminates one wire hop.
TERMINAL_TYPES = frozenset({tt.PACKET_DELIVER, tt.PACKET_DROP})
#: All trace types that reference a span by ``uid``.
SPAN_TYPES = ORIGIN_TYPES | TERMINAL_TYPES | frozenset(
    {tt.PACKET_REORDER, tt.RP_REQUEST, tt.RP_ACK, tt.RETRANSMIT}
)


@dataclass
class PacketSpan:
    """One packet's lifecycle: all trace records sharing a ``uid``."""

    uid: int
    #: The span this one descends from (mirror source, duplicated frame,
    #: superseded request copy, request that caused a reply, ...).
    parent: Optional[int] = None
    #: ``app`` / ``request`` / ``response`` / ``chain`` from the wire
    #: records, a protocol verb (``lease_new``, ``write``, ...) when an
    #: ``rp.request`` names it, or ``internal`` for placeholder spans.
    kind: str = "internal"
    flow: Optional[str] = None
    events: List[TraceRecord] = field(default_factory=list)
    children: List[int] = field(default_factory=list)
    #: Uid of the retransmission that replaced this request copy, if any.
    superseded_by: Optional[int] = None
    origins: int = 0
    terminals: int = 0
    delivers: int = 0
    drops: int = 0

    @property
    def status(self) -> str:
        """``delivered`` / ``dropped`` / ``internal`` / ``in_flight``.

        Wire status of the span's *last* hop; an ``internal`` span never
        touched a wire (it lives inside a switch).
        """
        if self.origins == 0 and self.terminals == 0:
            return "internal"
        if self.origins > self.terminals:
            return "in_flight"
        for record in reversed(self.events):
            if record.type == tt.PACKET_DELIVER:
                return "delivered"
            if record.type == tt.PACKET_DROP:
                return "dropped"
        return "in_flight"


@dataclass
class CompletenessReport:
    """Did every wire send reach a terminal? (``verify()``'s answer.)"""

    spans: int
    origin_events: int
    terminal_events: int
    #: Uids with more origins than terminals (in flight at end of trace).
    unterminated: List[int]
    #: Uids with more terminals than origins (ring-truncation signature).
    orphaned: List[int]

    @property
    def ok(self) -> bool:
        return not self.unterminated and not self.orphaned

    def summary(self) -> str:
        verdict = "complete" if self.ok else "INCOMPLETE"
        return (
            f"{self.spans} spans, {self.origin_events} sends, "
            f"{self.terminal_events} terminals: {verdict}"
            f" ({len(self.unterminated)} unterminated,"
            f" {len(self.orphaned)} orphaned)"
        )


class SpanBuilder:
    """Reconstruct :class:`PacketSpan` trees from trace records.

    Records must be in emission order (the ring and JSONL sinks both
    preserve it); the builder is a single deterministic pass, so the same
    trace stream always yields the same spans.
    """

    def __init__(self, records: Iterable[TraceRecord]) -> None:
        self.records: List[TraceRecord] = list(records)
        self.spans: Dict[int, PacketSpan] = {}
        self._build()

    @classmethod
    def from_tracer(cls, tracer) -> "SpanBuilder":
        return cls(tracer.tail())

    @classmethod
    def from_jsonl(cls, path: str) -> "SpanBuilder":
        return cls(read_jsonl(path))

    # -- construction ----------------------------------------------------------

    def _span(self, uid: int) -> PacketSpan:
        span = self.spans.get(uid)
        if span is None:
            span = self.spans[uid] = PacketSpan(uid=uid)
        return span

    def _build(self) -> None:
        for record in self.records:
            if record.type not in SPAN_TYPES:
                continue
            uid = int(record.fields.get("uid", 0))
            if uid <= 0:
                continue
            span = self._span(uid)
            span.events.append(record)
            fields = record.fields
            if record.type in ORIGIN_TYPES:
                span.origins += 1
            elif record.type == tt.PACKET_DELIVER:
                span.terminals += 1
                span.delivers += 1
            elif record.type == tt.PACKET_DROP:
                span.terminals += 1
                span.drops += 1
            if record.type == tt.PACKET_SEND and span.kind in (
                "internal", "app"
            ):
                span.kind = str(fields.get("kind", "app"))
            elif record.type == tt.RP_REQUEST:
                # The protocol verb is more specific than the wire kind.
                span.kind = str(fields.get("kind", span.kind))
            if span.flow is None and "flow" in fields:
                span.flow = str(fields["flow"])
            parent = fields.get("parent")
            if parent is not None and span.parent is None:
                span.parent = int(parent)
            if record.type == tt.RETRANSMIT:
                old = fields.get("parent")
                if old is not None:
                    self._span(int(old)).superseded_by = uid
        # Materialize placeholder spans for parents that left no records of
        # their own (packets consumed in-switch), then wire up children.
        for span in list(self.spans.values()):
            if span.parent is not None:
                self._span(span.parent)
        for uid in sorted(self.spans):
            span = self.spans[uid]
            if span.parent is not None:
                self.spans[span.parent].children.append(uid)

    # -- queries ---------------------------------------------------------------

    def verify(self) -> CompletenessReport:
        """Check that every wire origin reached a terminal event."""
        unterminated: List[int] = []
        orphaned: List[int] = []
        origin_events = terminal_events = 0
        for uid in sorted(self.spans):
            span = self.spans[uid]
            origin_events += span.origins
            terminal_events += span.terminals
            if span.origins > span.terminals:
                unterminated.append(uid)
            elif span.terminals > span.origins:
                orphaned.append(uid)
        return CompletenessReport(
            spans=len(self.spans),
            origin_events=origin_events,
            terminal_events=terminal_events,
            unterminated=unterminated,
            orphaned=orphaned,
        )

    def lifecycle(self, uid: int) -> str:
        """The :attr:`PacketSpan.status` of one span."""
        return self.spans[uid].status

    def roots(self) -> List[PacketSpan]:
        """Spans with no parent, in uid order."""
        return [self.spans[u] for u in sorted(self.spans)
                if self.spans[u].parent is None]

    def flow_spans(self, flow: str) -> List[PacketSpan]:
        """Transitive causal closure of every span tagged with ``flow``.

        Seeds are spans whose wire or protocol records named the flow;
        the closure walks parent and child edges both ways, so protocol
        packets (requests, replies, chain updates) that never carry the
        application 5-tuple are still pulled into the flow's timeline.
        """
        seeds = [u for u in sorted(self.spans)
                 if self.spans[u].flow == flow]
        seen = set()
        stack = list(seeds)
        while stack:
            uid = stack.pop()
            if uid in seen:
                continue
            seen.add(uid)
            span = self.spans[uid]
            if span.parent is not None:
                stack.append(span.parent)
            stack.extend(span.children)
            if span.superseded_by is not None:
                stack.append(span.superseded_by)
        return [self.spans[u] for u in sorted(seen)]

    def flows(self) -> List[str]:
        """Every flow tag seen, in first-seen order."""
        out: List[str] = []
        seen = set()
        for record in self.records:
            flow = record.fields.get("flow")
            if flow is not None and flow not in seen:
                seen.add(flow)
                out.append(str(flow))
        return out
