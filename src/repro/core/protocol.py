"""RedPlane state-replication protocol wire format (Fig 4).

A protocol message rides in a UDP datagram between a switch's protocol IP
and a state-store server. The RedPlane header carries a per-flow sequence
number, a message type, and the flow key; depending on the type it also
carries flow-state values and/or a piggybacked output packet (the
delay-line-memory trick of §5.1: the network plus store DRAM stand in for
switch packet buffer).

Layout (network byte order)::

    seq      u32   per-flow monotonically increasing sequence number
    type     u8    MessageType
    flags    u8    bit0: has piggyback
    aux      u16   snapshot slot index / miscellaneous small field
    flowkey  13B   packed IP 5-tuple
    nvals    u8    number of 32-bit state values
    vals     nvals * u32
    [plen    u16   piggybacked packet length]
    [packet  plen bytes]

The codec here is the definition of the format. Every message is encoded
into its packet's payload, but a receiver gets the sender's object back
(:meth:`~repro.net.packet.Packet.decoded`) instead of re-parsing bytes
nothing has touched; :meth:`RedPlaneMessage.unpack` runs for any payload
that is not the bytes the object was encoded into.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.net.packet import FlowKey, Packet

#: UDP port the state store listens on.
STORE_UDP_PORT = 4800
#: UDP port on which switches receive protocol responses.
SWITCH_UDP_PORT = 4801

_FIXED = struct.Struct("!IBBH")  # seq, type, flags, aux
_FLAG_PIGGYBACK = 0x01


def field_range_error(
    fields: List[Tuple[str, object, int]], exc: struct.error
) -> ValueError:
    """The error for the first ``(name, value, bits)`` the wire cannot carry.

    Encoders pack unmasked values and call this only once ``struct`` has
    refused one, so checking costs nothing while every field fits.
    """
    for name, value, bits in fields:
        if not isinstance(value, int) or not 0 <= value < 1 << bits:
            return ValueError(f"{name}={value!r} does not fit in u{bits}")
    return ValueError(f"value out of range for the wire format: {exc}")


class MessageType(enum.IntEnum):
    """RedPlane request and acknowledgment types."""

    LEASE_NEW_REQ = 1      # state initialization or migration (§5.1, step 1/4)
    REPL_WRITE_REQ = 2     # synchronous state-update replication (step 2)
    LEASE_RENEW_REQ = 3    # explicit renewal for read-centric flows (§5.3)
    READ_BUFFER_REQ = 4    # read packet buffered through the network (§5.1)
    SNAPSHOT_REPL_REQ = 5  # asynchronous snapshot slot replication (§5.4)
    LEASE_NEW_ACK = 17
    REPL_WRITE_ACK = 18
    LEASE_RENEW_ACK = 19
    READ_BUFFER_ACK = 20
    SNAPSHOT_REPL_ACK = 21

    def is_request(self) -> bool:
        return self < MessageType.LEASE_NEW_ACK

    def ack_type(self) -> "MessageType":
        """The acknowledgment type answering this request type."""
        if not self.is_request():
            raise ValueError(f"{self.name} is not a request")
        return MessageType(self + 16)


@dataclass(slots=True)
class RedPlaneMessage:
    """A parsed RedPlane protocol message. ``slots=True``: the write path
    builds its messages with ``object.__new__`` and a store per field,
    and a slotted class refuses a misspelt one."""

    seq: int
    msg_type: MessageType
    flow_key: FlowKey
    vals: List[int] = field(default_factory=list)
    piggyback: Optional[bytes] = None
    aux: int = 0

    MAX_VALS = 255

    def pack(self) -> bytes:
        """Encode; :class:`ValueError` names a field the wire cannot carry
        (``seq`` and ``vals`` are u32, ``aux`` u16) instead of masking it."""
        vals = self.vals
        if len(vals) > self.MAX_VALS:
            raise ValueError(f"too many state values: {len(vals)}")
        flags = _FLAG_PIGGYBACK if self.piggyback is not None else 0
        try:
            head = _FIXED.pack(self.seq, int(self.msg_type), flags, self.aux)
            body = struct.pack(f"!B{len(vals)}I", len(vals), *vals)
        except struct.error as exc:
            raise field_range_error(
                [("seq", self.seq, 32), ("aux", self.aux, 16)]
                + [(f"vals[{i}]", v, 32) for i, v in enumerate(vals)],
                exc,
            ) from None
        out = head + self.flow_key.pack() + body
        if self.piggyback is not None:
            if len(self.piggyback) > 0xFFFF:
                raise ValueError("piggybacked packet too large")
            out += struct.pack("!H", len(self.piggyback)) + self.piggyback
        return out

    @classmethod
    def unpack(cls, data: bytes) -> "RedPlaneMessage":
        if len(data) < _FIXED.size + FlowKey.PACKED_LEN + 1:
            raise ValueError("truncated RedPlane message")
        seq, msg_type, flags, aux = _FIXED.unpack_from(data, 0)
        offset = _FIXED.size
        flow_key = FlowKey.unpack(data[offset : offset + FlowKey.PACKED_LEN])
        offset += FlowKey.PACKED_LEN
        nvals = data[offset]
        offset += 1
        vals = list(
            struct.unpack_from(f"!{nvals}I", data, offset) if nvals else ()
        )
        offset += 4 * nvals
        piggyback: Optional[bytes] = None
        if flags & _FLAG_PIGGYBACK:
            (plen,) = struct.unpack_from("!H", data, offset)
            offset += 2
            piggyback = data[offset : offset + plen]
            if len(piggyback) != plen:
                raise ValueError("truncated piggybacked packet")
        return cls(
            seq=seq,
            msg_type=MessageType(msg_type),
            flow_key=flow_key,
            vals=vals,
            piggyback=piggyback,
            aux=aux,
        )

    def header_size(self) -> int:
        """Wire size of the RedPlane header without the piggybacked packet."""
        size = _FIXED.size + FlowKey.PACKED_LEN + 1 + 4 * len(self.vals)
        if self.piggyback is not None:
            size += 2
        return size


def pack_packets(packets: List[bytes]) -> bytes:
    """Bundle several serialized packets into one piggyback blob.

    Definition 1 allows a program to emit zero, one, or multiple output
    packets per input; all of them must be withheld until the state update
    is durable, so they all ride in the same replication request. Layout:
    ``count u8``, then per packet ``len u16 + bytes``.
    """
    if len(packets) > 255:
        raise ValueError("too many piggybacked packets")
    out = bytearray([len(packets)])
    for raw in packets:
        if len(raw) > 0xFFFF:
            raise ValueError("piggybacked packet too large")
        out += struct.pack("!H", len(raw))
        out += raw
    return bytes(out)


def unpack_packets(blob: bytes) -> List[bytes]:
    """Inverse of :func:`pack_packets`."""
    if not blob:
        raise ValueError("empty piggyback blob")
    count = blob[0]
    offset = 1
    out: List[bytes] = []
    for _ in range(count):
        (length,) = struct.unpack_from("!H", blob, offset)
        offset += 2
        raw = blob[offset : offset + length]
        if len(raw) != length:
            raise ValueError("truncated piggyback bundle")
        out.append(raw)
        offset += length
    return out


def make_protocol_packet(
    src_ip: int,
    dst_ip: int,
    msg: RedPlaneMessage,
    sport: int = SWITCH_UDP_PORT,
    dport: int = STORE_UDP_PORT,
) -> Packet:
    """Encapsulate a RedPlane message in UDP/IP; tags ``meta['rp_kind']``.

    ``meta['rp_piggyback_len']`` records how many of the packet's bytes are
    a piggybacked original packet: bandwidth accounting (Fig 10) attributes
    those to application traffic and only the encapsulation + RedPlane
    header to protocol overhead.

    The payload is still encoded (its length is the packet's wire size),
    and ``msg`` itself rides beside it for :func:`parse_protocol_packet`.
    """
    pkt = Packet.udp(src_ip, dst_ip, sport, dport, payload=msg.pack())
    pkt.meta["rp_kind"] = "request" if msg.msg_type.is_request() else "response"
    pkt.meta["rp_piggyback_len"] = len(msg.piggyback) if msg.piggyback else 0
    pkt.attach_decoded(msg)
    return pkt


def parse_protocol_packet(pkt: Packet) -> RedPlaneMessage:
    """The RedPlane message of a protocol packet: the sender's object while
    the payload is the bytes it was encoded into, else a fresh parse."""
    return pkt.decoded(RedPlaneMessage.unpack)
