"""Wire and durability codecs for the state store.

Three record-shaped byte formats live here, out of the transport layer:

* **chain updates** — internal store-to-store messages carrying the full
  per-flow record plus the eventual requester reply (head-to-tail);
* **chain acks** — the per-update confirmation travelling tail-to-head;
* **durable records** — the self-delimiting frame a persistent backend
  (:mod:`repro.statestore.wal`) appends to its log and writes into its
  snapshots, carrying everything needed to rebuild a
  :class:`~repro.statestore.backend.FlowRecord` after a crash.

All ``unpack_*`` functions raise :class:`ValueError` on malformed input
(truncated buffers, inconsistent length fields) rather than leaking
:class:`struct.error`, so a corrupted chain packet or a torn log tail is
a recoverable condition for the caller. All ``pack_*`` functions raise
:class:`ValueError` naming the field when a value does not fit its width
(u32 sequence numbers, values and IPs; u16 snapshot slots) instead of
masking it: what a receiver is handed must be exactly what it would decode.

These functions are the definition of the formats. A chain packet still
carries its encoded bytes, while the receiving node is handed the
sender's fields (:func:`unpack_chain_packet` is what they must equal).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple, Union

from repro.core.protocol import RedPlaneMessage, field_range_error
from repro.net.packet import FlowKey

#: First byte of a chain packet: a state update travelling head-to-tail,
#: or the per-update acknowledgment travelling tail-to-head.
CHAIN_UPDATE = 0
CHAIN_ACK = 1

#: A chain update's record state: (vals, initialized, last_seq, owner_ip,
#: lease_expiry) — the version-carrying subset of a FlowRecord.
ChainState = Tuple[List[int], bool, int, Optional[int], float]
#: A decoded chain update: (key, state, reply, requester_ip).
ChainUpdate = Tuple[FlowKey, ChainState, RedPlaneMessage, int]

_CHAIN_HEAD = struct.Struct("!13sB?IIdH")
_CHAIN_ACK_BODY = struct.Struct("!13sId")
_RECORD_HEAD = struct.Struct("!13sB?IIdH")
_SNAPSHOT_ENTRY = struct.Struct("!HII")
_U32 = struct.Struct("!I")


# -- chain update (head -> tail) ----------------------------------------------


def _record_fields(rec) -> List[Tuple[str, object, int]]:
    """``(name, value, bits)`` of a record's fixed-width fields, in the
    order :func:`field_range_error` reports the first misfit."""
    return (
        [("len(vals)", len(rec.vals), 8), ("last_seq", rec.last_seq, 32),
         ("owner_ip", rec.owner_ip or 0, 32)]
        + [(f"vals[{i}]", v, 32) for i, v in enumerate(rec.vals)]
    )


def pack_chain_update(
    key: FlowKey,
    rec,
    reply: RedPlaneMessage,
    requester_ip: int,
) -> bytes:
    """Serialize one chain update: record state + reply + requester.

    Raises :class:`ValueError` naming a field the wire cannot carry."""
    reply_bytes = reply.pack()
    vals = rec.vals
    try:
        head = _CHAIN_HEAD.pack(
            key.pack(),
            len(vals),
            rec.initialized,
            rec.last_seq,
            rec.owner_ip or 0,
            rec.lease_expiry,
            len(reply_bytes),
        )
        body = struct.pack(f"!{len(vals)}I", *vals)
        requester = _U32.pack(requester_ip)
    except struct.error as exc:
        raise field_range_error(
            _record_fields(rec) + [("requester_ip", requester_ip, 32)], exc
        ) from None
    return head + body + reply_bytes + requester


def unpack_chain_update(data: bytes) -> ChainUpdate:
    """Inverse of :func:`pack_chain_update`; ValueError on malformed input."""
    try:
        key_bytes, nvals, initialized, last_seq, owner_ip, expiry, reply_len = (
            _CHAIN_HEAD.unpack_from(data, 0)
        )
        offset = _CHAIN_HEAD.size
        vals = list(
            struct.unpack_from(f"!{nvals}I", data, offset) if nvals else ()
        )
        offset += 4 * nvals
        reply_raw = data[offset : offset + reply_len]
        if len(reply_raw) != reply_len:
            raise ValueError("truncated chain-update reply")
        reply = RedPlaneMessage.unpack(reply_raw)
        offset += reply_len
        (requester_ip,) = _U32.unpack_from(data, offset)
    except struct.error as exc:
        raise ValueError(f"malformed chain update: {exc}") from exc
    key = FlowKey.unpack(key_bytes)
    state: ChainState = (vals, initialized, last_seq, owner_ip or None, expiry)
    return key, state, reply, requester_ip


# -- chain ack (tail -> head) -------------------------------------------------


def pack_chain_ack(key: FlowKey, seq: int, expiry: float) -> bytes:
    """Serialize one hop-by-hop chain acknowledgment (ValueError if
    ``seq`` does not fit in u32)."""
    try:
        return _CHAIN_ACK_BODY.pack(key.pack(), seq, expiry)
    except struct.error as exc:
        raise field_range_error([("seq", seq, 32)], exc) from None


def unpack_chain_ack(data: bytes) -> Tuple[FlowKey, int, float]:
    """Inverse of :func:`pack_chain_ack`; ValueError on malformed input."""
    try:
        key_bytes, seq, expiry = _CHAIN_ACK_BODY.unpack(data)
    except struct.error as exc:
        raise ValueError(f"malformed chain ack: {exc}") from exc
    return FlowKey.unpack(key_bytes), seq, expiry


def unpack_chain_packet(
    data: bytes,
) -> Tuple[int, Union[Tuple[FlowKey, int, float], ChainUpdate]]:
    """A chain packet's payload, kind byte first: ``(CHAIN_ACK, (key, seq,
    expiry))`` or ``(CHAIN_UPDATE, (key, state, reply, requester_ip))``.
    The sender records the same pair on the packet
    (:meth:`~repro.net.packet.Packet.attach_decoded`)."""
    kind, body = data[0], data[1:]
    if kind == CHAIN_ACK:
        return kind, unpack_chain_ack(body)
    return kind, unpack_chain_update(body)


# -- durable record frames (WAL / snapshot) -----------------------------------


def pack_record(key: FlowKey, rec) -> bytes:
    """Serialize one full flow record for durable storage.

    Carries everything a restarted replica needs to serve the flow again:
    values, sequence number, lease ownership, and the bounded-inconsistency
    snapshot slots. The volatile parts of a record (buffered ``pending``
    requests) are deliberately not persisted: a crash may lose buffered
    inputs (§4.2 permits lost inputs), never acknowledged state.
    Raises :class:`ValueError` naming a field the frame cannot carry.
    """
    vals = rec.vals
    slots = sorted(rec.snapshot_vals)
    try:
        head = _RECORD_HEAD.pack(
            key.pack(),
            len(vals),
            rec.initialized,
            rec.last_seq,
            rec.owner_ip or 0,
            rec.lease_expiry,
            len(slots),
        )
        body = struct.pack(f"!{len(vals)}I", *vals)
        snaps = b"".join(
            _SNAPSHOT_ENTRY.pack(
                slot, rec.snapshot_vals[slot], rec.snapshot_seqs.get(slot, 0)
            )
            for slot in slots
        )
    except struct.error as exc:
        fields = _record_fields(rec) + [("len(snapshot_vals)", len(slots), 16)]
        for slot in slots:
            fields += [
                ("snapshot slot", slot, 16),
                (f"snapshot_vals[{slot}]", rec.snapshot_vals[slot], 32),
                (f"snapshot_seqs[{slot}]", rec.snapshot_seqs.get(slot, 0), 32),
            ]
        raise field_range_error(fields, exc) from None
    return head + body + snaps


def unpack_record(data: bytes):
    """Inverse of :func:`pack_record`; ValueError on malformed input.

    Returns ``(key, record)``. Imported lazily to keep the codec free of
    backend imports at module load time is unnecessary — the dependency is
    one-way (backend never imports the codec's unpackers at class-def time).
    """
    from repro.statestore.backend import FlowRecord

    try:
        key_bytes, nvals, initialized, last_seq, owner_ip, expiry, nsnaps = (
            _RECORD_HEAD.unpack_from(data, 0)
        )
        offset = _RECORD_HEAD.size
        vals = list(
            struct.unpack_from(f"!{nvals}I", data, offset) if nvals else ()
        )
        offset += 4 * nvals
        snapshot_vals = {}
        snapshot_seqs = {}
        for _ in range(nsnaps):
            slot, value, seq = _SNAPSHOT_ENTRY.unpack_from(data, offset)
            offset += _SNAPSHOT_ENTRY.size
            snapshot_vals[slot] = value
            snapshot_seqs[slot] = seq
    except struct.error as exc:
        raise ValueError(f"malformed record frame: {exc}") from exc
    rec = FlowRecord(
        vals=vals,
        initialized=initialized,
        last_seq=last_seq,
        owner_ip=owner_ip or None,
        lease_expiry=expiry,
        snapshot_vals=snapshot_vals,
        snapshot_seqs=snapshot_seqs,
    )
    return FlowKey.unpack(key_bytes), rec
