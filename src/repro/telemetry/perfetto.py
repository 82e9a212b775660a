"""Chrome trace-event (Perfetto) export of the span stream.

:func:`export_chrome_trace` turns trace records into the JSON object
format consumed by ``ui.perfetto.dev`` and ``chrome://tracing``: wire
hops become ``"X"`` complete events (one slice per link crossing, from
``packet.send`` to the hop's ``packet.deliver``/``packet.drop``),
protocol and fault activity become ``"i"`` instants, and ``"M"``
metadata events name the synthetic processes and threads:

=====  ==========  =====================================================
pid    process     threads
=====  ==========  =====================================================
1      network     one per link *direction*, in first-seen order
2      redplane    one per switch (requests, acks, leases, retransmits)
3      store       one per store node (failover, chain repair)
4      chaos       "faults" (all inject/clear instants) and "health"
=====  ==========  =====================================================

Timestamps pass through natively: the trace-event ``ts``/``dur`` unit
is microseconds, exactly the simulator's clock. Everything is derived
from the deterministic record stream with first-seen id allocation, so
the exported document — serialized with sorted keys — is byte-identical
across same-seed runs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.telemetry import trace as tt
from repro.telemetry.trace import TraceRecord

PID_NETWORK = 1
PID_REDPLANE = 2
PID_STORE = 3
PID_CHAOS = 4

_PROCESS_NAMES = {
    PID_NETWORK: "network",
    PID_REDPLANE: "redplane",
    PID_STORE: "store",
    PID_CHAOS: "chaos",
}

#: Instant-event placement: trace type -> (pid, field naming the thread,
#: fallback thread name).
_INSTANT_HOMES: Dict[str, Tuple[int, str, str]] = {
    tt.RP_REQUEST: (PID_REDPLANE, "switch", "engine"),
    tt.RP_ACK: (PID_REDPLANE, "switch", "engine"),
    tt.LEASE_REQUEST: (PID_REDPLANE, "switch", "engine"),
    tt.LEASE_GRANT: (PID_REDPLANE, "switch", "engine"),
    tt.LEASE_RENEW: (PID_REDPLANE, "switch", "engine"),
    tt.LEASE_EXPIRY: (PID_REDPLANE, "switch", "engine"),
    tt.RETRANSMIT: (PID_REDPLANE, "switch", "engine"),
    tt.SNAPSHOT: (PID_REDPLANE, "switch", "engine"),
    tt.PACKET_DUP: (PID_NETWORK, "dir", "wire"),
    tt.FAILOVER: (PID_STORE, "evicted", "coordinator"),
}

#: Instants pinned to one named track regardless of record fields:
#: trace type -> (pid, thread name, field appended to the slice name).
#: All fault injections and clears land on a single "faults" track, so
#: the chaos timeline reads as one lane instead of one lane per target;
#: health detections get their own track beside it.
_FIXED_TRACKS: Dict[str, Tuple[int, str, str]] = {
    tt.FAULT_INJECT: (PID_CHAOS, "faults", "target"),
    tt.FAULT_CLEAR: (PID_CHAOS, "faults", "target"),
    tt.HEALTH_DETECT: (PID_CHAOS, "health", "detector"),
}


class _ThreadTable:
    """First-seen (pid, thread-name) -> tid allocation."""

    def __init__(self) -> None:
        self._tids: Dict[Tuple[int, str], int] = {}
        self._next: Dict[int, int] = {}

    def tid(self, pid: int, name: str) -> int:
        key = (pid, name)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._next.get(pid, 1)
            self._next[pid] = tid + 1
            self._tids[key] = tid
        return tid

    def metadata(self) -> List[Dict[str, Any]]:
        events: List[Dict[str, Any]] = []
        for pid in sorted(_PROCESS_NAMES):
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": _PROCESS_NAMES[pid]},
            })
        for (pid, name), tid in sorted(
            self._tids.items(), key=lambda item: (item[0][0], item[1])
        ):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": name},
            })
        return events


def export_chrome_trace(
    records: Iterable[TraceRecord], flow: Optional[str] = None
) -> Dict[str, Any]:
    """Build a Chrome trace-event document from trace records.

    ``flow`` restricts the export to one flow's causal closure (see
    :meth:`repro.telemetry.spans.SpanBuilder.flow_spans`) plus the
    global store/chaos instants, which have no flow affiliation.
    """
    records = list(records)
    member_uids: Optional[set] = None
    if flow is not None:
        from repro.telemetry.spans import SpanBuilder

        member_uids = {
            span.uid for span in SpanBuilder(records).flow_spans(flow)
        }
    threads = _ThreadTable()
    events: List[Dict[str, Any]] = []
    #: Open wire hop per uid: (send_ts, tid, fields).
    open_hops: Dict[int, Tuple[float, int, Dict[str, Any]]] = {}

    for record in records:
        fields = record.fields
        uid = int(fields.get("uid", 0))
        if member_uids is not None and uid and uid not in member_uids:
            continue
        if record.type == tt.PACKET_SEND:
            tid = threads.tid(PID_NETWORK, str(fields.get("dir", "wire")))
            open_hops[uid] = (record.ts, tid, fields)
        elif record.type in (tt.PACKET_DELIVER, tt.PACKET_DROP):
            hop = open_hops.pop(uid, None)
            if hop is None:
                continue
            send_ts, tid, send_fields = hop
            args: Dict[str, Any] = {
                "uid": uid,
                "bytes": send_fields.get("bytes", 0),
            }
            if "flow" in send_fields:
                args["flow"] = send_fields["flow"]
            if "parent" in send_fields:
                args["parent"] = send_fields["parent"]
            if record.type == tt.PACKET_DROP:
                args["dropped"] = fields.get("reason", "?")
            else:
                args["node"] = fields.get("node", "?")
            events.append({
                "name": "{} {}".format(
                    send_fields.get("kind", "app"),
                    send_fields.get("link", "?"),
                ),
                "ph": "X",
                "ts": send_ts,
                "dur": record.ts - send_ts,
                "pid": PID_NETWORK,
                "tid": tid,
                "args": args,
            })
        elif record.type in _INSTANT_HOMES or record.type in _FIXED_TRACKS:
            fixed = _FIXED_TRACKS.get(record.type)
            name = record.type
            if fixed is not None:
                pid, thread_name, label = fixed
                if label in fields:
                    # "fault.inject agg1" reads better on a shared track
                    # than a bare type with the target buried in args.
                    name = f"{record.type} {fields[label]}"
            else:
                pid, thread_field, fallback = _INSTANT_HOMES[record.type]
                thread_name = str(fields.get(thread_field, fallback))
            tid = threads.tid(pid, thread_name)
            events.append({
                "name": name,
                "ph": "i",
                "ts": record.ts,
                "pid": pid,
                "tid": tid,
                "s": "t",
                "args": dict(fields),
            })

    # A hop left open means the run ended mid-wire; surface it rather
    # than dropping it silently.
    for uid, (send_ts, tid, send_fields) in sorted(open_hops.items()):
        events.append({
            "name": "in-flight {}".format(send_fields.get("link", "?")),
            "ph": "i",
            "ts": send_ts,
            "pid": PID_NETWORK,
            "tid": tid,
            "s": "t",
            "args": {"uid": uid},
        })

    return {"traceEvents": threads.metadata() + events}


def validate_chrome_trace(doc: Dict[str, Any]) -> Dict[str, int]:
    """Schema-check a trace-event document; raises ``ValueError``.

    Returns per-phase event counts on success (what the CI smoke job
    prints).
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("document must be a dict with 'traceEvents'")
    trace_events = doc["traceEvents"]
    if not isinstance(trace_events, list):
        raise ValueError("'traceEvents' must be a list")
    counts: Dict[str, int] = {}
    for i, event in enumerate(trace_events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            raise ValueError(f"{where}: unsupported ph {ph!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where}: missing name")
        for id_field in ("pid", "tid"):
            if not isinstance(event.get(id_field), int):
                raise ValueError(f"{where}: {id_field} must be an int")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"{where}: args must be an object")
        if ph in ("X", "i"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: bad dur {dur!r}")
        if ph == "i" and event.get("s") not in ("g", "p", "t"):
            raise ValueError(f"{where}: instant scope must be g/p/t")
        counts[ph] = counts.get(ph, 0) + 1
    return counts


def dump_chrome_trace(doc: Dict[str, Any]) -> str:
    """Canonical serialization: byte-identical for identical documents."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
