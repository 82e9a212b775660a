"""The declared telemetry schema: every trace type and metric the run may emit.

This is the contract between the emitting components and everything that
reads telemetry downstream — span reconstruction
(:mod:`repro.telemetry.spans`), the Perfetto exporter, the analysis
layer's ``MetricRegistry.total`` aggregations, and docs/TELEMETRY.md.
The static verifier (``repro.verify``, rules RT3xx) checks every emit
site in the tree against these tables, so adding a trace type or metric
means declaring it here first — exactly like adding a P4 header field
means declaring it in the program.

Three tables:

* :data:`TRACE_EVENTS` — per trace type, the required and optional field
  names. A record missing a required field breaks whatever join keys on
  it (``uid`` for spans, ``flow`` for timelines).
* :data:`PAIRS` — span-opening types and the terminal types that close
  them. A file set that emits an opener but no closer produces spans
  that can never terminate (RT310).
* :data:`METRICS` — every metric name (exact or ``prefix.*`` pattern),
  its instrument kind, and its exact label-key set. Label keys must come
  from :data:`LABEL_DOMAINS`, which names the bounded domain of each —
  the cardinality discipline that keeps the registry from exploding
  per-packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from repro.telemetry import trace as tt


@dataclass(frozen=True)
class EventSpec:
    """Field contract of one trace event type."""

    required: FrozenSet[str]
    optional: FrozenSet[str] = frozenset()

    @property
    def allowed(self) -> FrozenSet[str]:
        return self.required | self.optional


def _spec(required, optional=()) -> EventSpec:
    return EventSpec(frozenset(required), frozenset(optional))


TRACE_EVENTS: Dict[str, EventSpec] = {
    tt.PACKET_SEND: _spec(
        ("link", "dir", "bytes", "uid", "kind"), ("flow", "parent")
    ),
    tt.PACKET_DELIVER: _spec(("link", "dir", "node", "uid")),
    tt.PACKET_DROP: _spec(("link", "dir", "reason", "bytes", "uid")),
    tt.PACKET_DUP: _spec(("link", "dir", "bytes", "uid", "parent")),
    tt.RP_REQUEST: _spec(
        ("switch", "kind", "flow", "seq", "uid"), ("parent",)
    ),
    tt.RP_ACK: _spec(
        ("switch", "kind", "flow", "seq", "uid", "req_uid", "rtt_us"),
        ("cause",),
    ),
    tt.LEASE_REQUEST: _spec(("switch", "flow")),
    tt.LEASE_GRANT: _spec(("switch", "flow", "seq", "migrated")),
    tt.LEASE_RENEW: _spec(("switch", "flow")),
    tt.LEASE_EXPIRY: _spec(("switch", "flow", "expired_at")),
    tt.RETRANSMIT: _spec(
        ("switch", "kind", "flow", "seq", "timeout_us", "uid", "parent")
    ),
    tt.SNAPSHOT: _spec(("switch", "slot", "epoch")),
    tt.FAILOVER: _spec(("shard", "evicted", "new_head", "survivors")),
    tt.STORE_RECOVER: _spec(("node", "records", "backend")),
    tt.FAULT_INJECT: _spec(("kind", "target", "detail")),
    tt.FAULT_CLEAR: _spec(("kind", "target", "detail")),
    # A rolling health detector (repro.observe.health) fired: which one,
    # the observed value, the trip level.
    tt.HEALTH_DETECT: _spec(("detector", "value", "threshold")),
}

#: Span-opening type -> the terminal types that close it. Used by the
#: span builder's completeness semantics and enforced statically (RT310):
#: a file set emitting an opener must also emit at least one closer.
PAIRS: Dict[str, FrozenSet[str]] = {
    tt.PACKET_SEND: frozenset({tt.PACKET_DELIVER, tt.PACKET_DROP}),
    tt.PACKET_DUP: frozenset({tt.PACKET_DELIVER, tt.PACKET_DROP}),
    tt.RP_REQUEST: frozenset({tt.RP_ACK}),
    tt.LEASE_REQUEST: frozenset({tt.LEASE_GRANT, tt.LEASE_EXPIRY}),
    tt.FAULT_INJECT: frozenset({tt.FAULT_CLEAR}),
}

#: Every legal label key and the bounded domain its values range over.
#: A key absent here has no declared cardinality bound and is RT303 —
#: the classic offenders being per-packet values (uid, seq) that turn a
#: registry into an unbounded log.
LABEL_DOMAINS: Dict[str, str] = {
    "link": "topology links (fixed per testbed)",
    "dir": "link directions (2)",
    "reason": "drop-reason vocabulary (fixed set of strings)",
    "switch": "switch ASICs (fixed per testbed)",
    "session": "mirror session ids (few per switch)",
    "node": "state-store nodes (fixed per testbed)",
    "host": "end hosts (fixed per testbed)",
    "shard": "store shards (fixed per deployment)",
}


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric: name (exact or ``prefix.*``), kind, labels."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: FrozenSet[str] = frozenset()


def _m(name: str, kind: str, *labels: str) -> MetricSpec:
    return MetricSpec(name, kind, frozenset(labels))


#: Declared metrics, most-specific first: a name is checked against each
#: entry in order and judged by the first whose pattern matches.
METRICS: Tuple[MetricSpec, ...] = (
    _m("link.tx_bytes", "counter", "link", "dir"),
    _m("link.tx_packets", "counter", "link", "dir"),
    _m("link.duplicated", "counter", "link"),
    _m("link.drops", "counter", "link", "reason"),
    _m("mirror.active_copies", "gauge", "switch", "session"),
    _m("mirror.copies_total", "counter", "switch", "session"),
    _m("switch.buffer_occupancy_bytes", "gauge", "switch"),
    _m("switch.buffer_peak_bytes", "gauge", "switch"),
    _m("switch.bytes_original_out", "counter", "switch"),
    _m("switch.bytes_protocol_out", "counter", "switch"),
    _m("switch.bytes_protocol_in", "counter", "switch"),
    _m("switch.bytes_chain_transit", "counter", "switch"),
    _m("switch.pkts_processed", "counter", "switch"),
    # Created at the first drop they count, so a run without one keeps
    # its snapshot; docs/TELEMETRY.md lists each family's reasons.
    _m("switch.drops", "counter", "switch", "reason"),
    _m("route.drops", "counter", "switch", "reason"),
    _m("host.drops", "counter", "host", "reason"),
    _m("probe.rtt_us", "histogram", "host"),
    _m("sim.max_events_exhausted", "counter"),
    _m("redplane.ack_rtt_us", "histogram", "switch"),
    _m("redplane.resends_per_request", "histogram", "switch"),
    _m("redplane.flow_table_entries", "gauge", "switch"),
    _m("redplane.resource.*", "gauge", "switch"),
    _m("redplane.*", "counter", "switch"),
    _m("store.chain_reconfigurations", "counter"),
    # Per-node transport-layer counters of StateStoreNode, declared
    # explicitly rather than through the trailing wildcard so renames
    # surface as RT304 at the lint.
    _m("store.requests_processed", "counter", "node"),
    _m("store.updates_applied", "counter", "node"),
    _m("store.updates_rejected_stale", "counter", "node"),
    _m("store.leases_granted", "counter", "node"),
    _m("store.requests_buffered", "counter", "node"),
    # Storage-backend instrumentation (repro.statestore.backend and its
    # implementations): crash-recovery and WAL durability accounting.
    _m("store.backend.recoveries", "counter", "node"),
    _m("store.backend.wal_appends", "counter", "node"),
    _m("store.backend.wal_snapshots", "counter", "node"),
    _m("store.backend.wal_replayed", "counter", "node"),
    _m("store.backend.wal_bytes", "gauge", "node"),
    _m("store.backend.*", "counter", "node"),
    _m("store.*", "counter", "node"),
)
