"""Byte-accurate packet model: Ethernet / IPv4 / UDP / TCP headers.

Packets carry real header fields and serialize to real bytes so that the
bandwidth experiments (Figs 10, 11, 15) count the same bytes a hardware
testbed would put on the wire. Application payloads (including the RedPlane
protocol header, Fig 4) live in :attr:`Packet.payload` as raw bytes; the
:mod:`repro.core.protocol` module packs and parses them.

A packet's wire size is fixed when it is built (:attr:`Packet.wire_size`):
rebinding a header or the payload to one of another size raises, so the
hot paths read a number instead of calling :meth:`Packet.byte_size`.
:meth:`Packet.udp` and :meth:`Packet.from_bytes`, the per-packet
factories, fill the headers in their own frame rather than through each
header's generated ``__init__``, and :class:`FlowKey` is a ``tuple``, so
a key hashes, compares and is built in C.

A per-packet ``meta`` dict carries simulation bookkeeping (timestamps,
mirror metadata, provenance) and contributes nothing to the wire size.
One of its entries lets a receiver skip a parse: a sender that encodes an
object into the payload records the object beside the exact bytes
(:meth:`Packet.attach_decoded`), and :meth:`Packet.decoded` hands it back
only while the payload is still those bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, Dict, Optional, Tuple, TypeVar

T = TypeVar("T")

#: An instance with no ``__init__`` run: the factories fill the fields.
_new = object.__new__
#: ``tuple.__new__(FlowKey, fields)`` builds a key without a frame.
_tuple_new = tuple.__new__

PROTO_TCP = 6
PROTO_UDP = 17

ETH_HEADER_LEN = 14
IPV4_HEADER_LEN = 20
UDP_HEADER_LEN = 8
TCP_HEADER_LEN = 20

#: Minimum Ethernet frame size (without FCS) used for wire-size accounting.
MIN_FRAME_BYTES = 60

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100

# TCP flag bits.
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


def ip_aton(dotted: str) -> int:
    """Parse a dotted-quad IPv4 address into a 32-bit integer."""
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {dotted!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address: {dotted!r}")
        value = (value << 8) | octet
    return value


def ip_ntoa(value: int) -> str:
    """Format a 32-bit integer as a dotted-quad IPv4 address."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 address out of range: {value}")
    return "%d.%d.%d.%d" % (value >> 24, (value >> 16) & 0xFF,
                            (value >> 8) & 0xFF, value & 0xFF)


def ipv4_checksum(header: bytes) -> int:
    """Compute the 16-bit ones'-complement IPv4 header checksum."""
    if len(header) % 2:
        header += b"\x00"
    total = sum(struct.unpack(f"!{len(header) // 2}H", header))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass
class EthernetHeader:
    """Ethernet II header; MACs are 48-bit integers."""

    src: int = 0
    dst: int = 0
    ethertype: int = 0x0800

    def pack(self) -> bytes:
        return (
            self.dst.to_bytes(6, "big")
            + self.src.to_bytes(6, "big")
            + struct.pack("!H", self.ethertype)
        )

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        if len(data) < ETH_HEADER_LEN:
            raise ValueError("truncated Ethernet header")
        eth = _new(cls)
        eth.src = int.from_bytes(data[6:12], "big")
        eth.dst = int.from_bytes(data[0:6], "big")
        (eth.ethertype,) = struct.unpack("!H", data[12:14])
        return eth


@dataclass
class IPv4Header:
    """IPv4 header (no options); addresses are 32-bit integers."""

    src: int = 0
    dst: int = 0
    proto: int = PROTO_UDP
    ttl: int = 64
    total_length: int = IPV4_HEADER_LEN
    identification: int = 0
    dscp: int = 0

    def pack(self) -> bytes:
        version_ihl = (4 << 4) | 5
        head = struct.pack(
            "!BBHHHBBH",
            version_ihl,
            self.dscp << 2,
            self.total_length,
            self.identification,
            0,  # flags/fragment offset
            self.ttl,
            self.proto,
            0,  # checksum placeholder
        ) + struct.pack("!II", self.src, self.dst)
        checksum = ipv4_checksum(head)
        return head[:10] + struct.pack("!H", checksum) + head[12:]

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4Header":
        if len(data) < IPV4_HEADER_LEN:
            raise ValueError("truncated IPv4 header")
        (version_ihl, tos, total_length, ident, _flags, ttl, proto, _csum) = (
            struct.unpack("!BBHHHBBH", data[:12])
        )
        if version_ihl >> 4 != 4:
            raise ValueError("not an IPv4 packet")
        ip = _new(cls)
        ip.src, ip.dst = struct.unpack("!II", data[12:20])
        ip.proto = proto
        ip.ttl = ttl
        ip.total_length = total_length
        ip.identification = ident
        ip.dscp = tos >> 2
        return ip


@dataclass
class UDPHeader:
    sport: int = 0
    dport: int = 0
    length: int = UDP_HEADER_LEN

    def pack(self) -> bytes:
        return struct.pack("!HHHH", self.sport, self.dport, self.length, 0)

    @classmethod
    def unpack(cls, data: bytes) -> "UDPHeader":
        if len(data) < UDP_HEADER_LEN:
            raise ValueError("truncated UDP header")
        udp = _new(cls)
        udp.sport, udp.dport, udp.length, _csum = struct.unpack(
            "!HHHH", data[:8])
        return udp


@dataclass
class TCPHeader:
    sport: int = 0
    dport: int = 0
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535

    def pack(self) -> bytes:
        data_offset = (5 << 4) << 8  # 20-byte header, no options
        return struct.pack(
            "!HHIIHHHH",
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            data_offset | self.flags,
            self.window,
            0,  # checksum
            0,  # urgent pointer
        )

    @classmethod
    def unpack(cls, data: bytes) -> "TCPHeader":
        if len(data) < TCP_HEADER_LEN:
            raise ValueError("truncated TCP header")
        sport, dport, seq, ack, off_flags, window, _csum, _urg = struct.unpack(
            "!HHIIHHHH", data[:20]
        )
        tcp = _new(cls)
        tcp.sport = sport
        tcp.dport = dport
        tcp.seq = seq
        tcp.ack = ack
        tcp.flags = off_flags & 0x1FF
        tcp.window = window
        return tcp

    def has(self, flag: int) -> bool:
        return bool(self.flags & flag)


_FLOW_KEY = struct.Struct("!IIBHH")


class FlowKey(tuple):
    """An IP 5-tuple: the default RedPlane state-partitioning key.

    The ``tuple`` ``(src_ip, dst_ip, proto, sport, dport)`` with a
    read-only name per field: it hashes, compares and orders as that
    tuple, in C, and equals it. ``repr`` and ``str`` are the key's own.
    """

    __slots__ = ()

    PACKED_LEN = _FLOW_KEY.size

    def __new__(cls, src_ip: int, dst_ip: int, proto: int, sport: int,
                dport: int) -> "FlowKey":
        return _tuple_new(cls, (src_ip, dst_ip, proto, sport, dport))

    src_ip = property(itemgetter(0), doc="Source IPv4 address.")
    dst_ip = property(itemgetter(1), doc="Destination IPv4 address.")
    proto = property(itemgetter(2), doc="IP protocol number.")
    sport = property(itemgetter(3), doc="Source port (0 if not TCP/UDP).")
    dport = property(itemgetter(4), doc="Destination port (0 if not TCP/UDP).")

    def __getnewargs__(self) -> Tuple[int, ...]:
        """Pickle and copy rebuild a ``FlowKey``, not a bare tuple."""
        return tuple(self)

    def __repr__(self) -> str:
        return ("FlowKey(src_ip=%r, dst_ip=%r, proto=%r, sport=%r, dport=%r)"
                % self)

    def reversed(self) -> "FlowKey":
        """The key of the reverse direction of this flow."""
        src_ip, dst_ip, proto, sport, dport = self
        return _tuple_new(FlowKey, (dst_ip, src_ip, proto, dport, sport))

    def canonical(self) -> "FlowKey":
        """Direction-independent form (smaller endpoint first).

        Used when both directions of a connection must map to the same
        state partition, e.g. a NAT translation entry.
        """
        src_ip, dst_ip, _proto, sport, dport = self
        return self if (src_ip, sport) <= (dst_ip, dport) else self.reversed()

    def pack(self) -> bytes:
        return _FLOW_KEY.pack(*self)

    @classmethod
    def unpack(cls, data: bytes) -> "FlowKey":
        return _tuple_new(cls, _FLOW_KEY.unpack(data[:_FLOW_KEY.size]))

    def __str__(self) -> str:
        src_ip, dst_ip, proto, sport, dport = self
        return (
            f"{ip_ntoa(src_ip)}:{sport}->"
            f"{ip_ntoa(dst_ip)}:{dport}/{proto}"
        )


def _wire_size(ip: Optional["IPv4Header"], l4: Optional[object],
               payload: bytes, vlan: Optional[int]) -> int:
    """Wire size in bytes of a packet with these headers and payload
    (headers + payload, >= minimum frame)."""
    size = ETH_HEADER_LEN
    if vlan is not None:
        size += 4
    if ip is not None:
        size += IPV4_HEADER_LEN
    if l4 is not None:
        if isinstance(l4, UDPHeader):
            size += UDP_HEADER_LEN
        elif isinstance(l4, TCPHeader):
            size += TCP_HEADER_LEN
    size += len(payload)
    return size if size > MIN_FRAME_BYTES else MIN_FRAME_BYTES


#: The fields a packet's wire size is a function of.
_LAYOUT = frozenset({"ip", "l4", "payload", "vlan"})


@dataclass(init=False)
class Packet:
    """A simulated packet: parsed headers plus an opaque payload.

    ``meta`` is simulation-side metadata (timestamps, mirror state, trace
    ids); it does not exist on the wire and is *shared* across hops unless
    the packet is copied, which mirrors how annotations ride through a
    pipeline.

    ``wire_size`` is fixed when the packet is built. The headers' fields
    may change in place (addresses, ports, TTL), and ``ip``, ``l4``,
    ``payload`` and ``vlan`` may be rebound, but only to values that keep
    the wire size: :meth:`__setattr__` raises otherwise, so a new size is
    a new packet (:meth:`with_payload`).
    """

    eth: EthernetHeader
    ip: Optional[IPv4Header]
    l4: Optional[object]  # UDPHeader | TCPHeader | None
    payload: bytes
    vlan: Optional[int]
    meta: Dict[str, object]
    #: Wire size in bytes (headers + payload, >= minimum frame): what
    #: :meth:`byte_size` computes, read without a call.
    wire_size: int = field(repr=False, compare=False)

    def __init__(
        self,
        eth: Optional[EthernetHeader] = None,
        ip: Optional[IPv4Header] = None,
        l4: Optional[object] = None,
        payload: bytes = b"",
        vlan: Optional[int] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        # Filled as one dict: a field assignment would run __setattr__.
        vars(self).update(
            eth=EthernetHeader() if eth is None else eth, ip=ip, l4=l4,
            payload=payload, vlan=vlan, meta={} if meta is None else meta,
            wire_size=_wire_size(ip, l4, payload, vlan))

    def __setattr__(self, name: str, value: object) -> None:
        if name in _LAYOUT:
            layout = {"ip": self.ip, "l4": self.l4, "payload": self.payload,
                      "vlan": self.vlan}
            layout[name] = value
            size = _wire_size(**layout)
            if size != self.wire_size:
                raise ValueError(
                    f"setting {name} would change the packet's wire size "
                    f"from {self.wire_size} to {size} bytes; build a new "
                    f"packet (with_payload for a new payload)")
        object.__setattr__(self, name, value)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def udp(
        cls,
        src_ip: int,
        dst_ip: int,
        sport: int,
        dport: int,
        payload: bytes = b"",
        vlan: Optional[int] = None,
    ) -> "Packet":
        """The hot factory: it fills the headers and ``wire_size`` in this
        one frame, with no header ``__init__`` (tests/test_packet.py
        compares it with the constructors and :meth:`byte_size`)."""
        length = UDP_HEADER_LEN + len(payload)
        eth = _new(EthernetHeader)
        eth.src = 0
        eth.dst = 0
        eth.ethertype = ETHERTYPE_IPV4
        ip = _new(IPv4Header)
        ip.src = src_ip
        ip.dst = dst_ip
        ip.proto = PROTO_UDP
        ip.ttl = 64
        ip.total_length = IPV4_HEADER_LEN + length
        ip.identification = 0
        ip.dscp = 0
        udp = _new(UDPHeader)
        udp.sport = sport
        udp.dport = dport
        udp.length = length
        size = ETH_HEADER_LEN + IPV4_HEADER_LEN + length
        if vlan is not None:
            size += 4
        pkt = _new(cls)
        vars(pkt).update(
            eth=eth, ip=ip, l4=udp, payload=payload, vlan=vlan, meta={},
            wire_size=size if size > MIN_FRAME_BYTES else MIN_FRAME_BYTES)
        return pkt

    @classmethod
    def tcp(
        cls,
        src_ip: int,
        dst_ip: int,
        sport: int,
        dport: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = 0,
        payload: bytes = b"",
        vlan: Optional[int] = None,
    ) -> "Packet":
        ip = IPv4Header(src=src_ip, dst=dst_ip, proto=PROTO_TCP)
        tcp = TCPHeader(sport=sport, dport=dport, seq=seq, ack=ack, flags=flags)
        ip.total_length = IPV4_HEADER_LEN + TCP_HEADER_LEN + len(payload)
        return cls(ip=ip, l4=tcp, payload=payload, vlan=vlan)

    # -- inspection -----------------------------------------------------------

    def flow_key(self) -> FlowKey:
        """Derive the IP 5-tuple key; ports are zero for non-TCP/UDP."""
        ip = self.ip
        if ip is None:
            raise ValueError("packet has no IP header")
        l4 = self.l4
        if isinstance(l4, (UDPHeader, TCPHeader)):
            return _tuple_new(
                FlowKey, (ip.src, ip.dst, ip.proto, l4.sport, l4.dport))
        return _tuple_new(FlowKey, (ip.src, ip.dst, ip.proto, 0, 0))

    def byte_size(self) -> int:
        """Wire size in bytes (headers + payload, >= minimum frame),
        computed from the headers; it equals :attr:`wire_size`."""
        return _wire_size(self.ip, self.l4, self.payload, self.vlan)

    def copy(self) -> "Packet":
        """Deep-enough copy: headers and meta are duplicated."""
        return self.with_payload(self.payload)

    def with_payload(self, payload: bytes) -> "Packet":
        """A :meth:`copy` carrying ``payload`` instead: the way to give a
        packet a payload of another wire size. A payload of another size
        sets the IP total length and the UDP length from it."""
        ip = replace(self.ip) if self.ip is not None else None
        l4 = replace(self.l4) if self.l4 is not None else None
        if len(payload) != len(self.payload):
            l4_len = (UDP_HEADER_LEN if isinstance(l4, UDPHeader)
                      else TCP_HEADER_LEN if isinstance(l4, TCPHeader) else 0)
            if isinstance(l4, UDPHeader):
                l4.length = UDP_HEADER_LEN + len(payload)
            if ip is not None:
                ip.total_length = IPV4_HEADER_LEN + l4_len + len(payload)
        return Packet(eth=replace(self.eth), ip=ip, l4=l4, payload=payload,
                      vlan=self.vlan, meta=dict(self.meta))

    # -- decode once --------------------------------------------------------------

    def attach_decoded(self, obj: object) -> None:
        """Record ``obj`` as what the current ``payload`` decodes to.

        Called by a sender right after encoding ``obj`` into the payload.
        The record is pinned to that exact bytes object, so assigning a new
        ``payload`` voids it; :meth:`copy` shares it along with the bytes.
        The object is shared with every receiver: treat it as read-only.
        """
        self.meta["decoded"] = (self.payload, obj)

    def decoded(self, decode: Callable[[bytes], T]) -> T:
        """``decode(payload)``, without running it when it is known.

        If the sender recorded an object for exactly the bytes the payload
        holds now, that object is the answer (it equals what ``decode``
        returns; tests/test_decode_once.py checks this on whole runs).
        A rewritten payload, a packet parsed from bytes or one built by
        hand gets the real parse.
        """
        view = self.meta.get("decoded")
        if view is not None and view[0] is self.payload:
            return view[1]
        return decode(self.payload)

    # -- serialization ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize headers + payload into on-the-wire bytes."""
        out = bytearray(self.eth.pack())
        if self.vlan is not None:
            # Rewrite the ethertype to 802.1Q and insert the tag.
            out[12:14] = struct.pack("!H", ETHERTYPE_VLAN)
            out += struct.pack("!HH", self.vlan & 0x0FFF, ETHERTYPE_IPV4)
        if self.ip is not None:
            out += self.ip.pack()
        if isinstance(self.l4, UDPHeader):
            out += self.l4.pack()
        elif isinstance(self.l4, TCPHeader):
            out += self.l4.pack()
        out += self.payload
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        """Parse wire bytes back into a structured packet."""
        eth = EthernetHeader.unpack(data)
        offset = ETH_HEADER_LEN
        vlan = None
        ethertype = eth.ethertype
        if ethertype == ETHERTYPE_VLAN:
            tag, inner_type = struct.unpack("!HH", data[offset : offset + 4])
            vlan = tag & 0x0FFF
            ethertype = inner_type
            eth.ethertype = inner_type
            offset += 4
        ip = None
        l4: Optional[object] = None
        if ethertype == ETHERTYPE_IPV4:
            ip = IPv4Header.unpack(data[offset:])
            offset += IPV4_HEADER_LEN
            if ip.proto == PROTO_UDP:
                l4 = UDPHeader.unpack(data[offset:])
                offset += UDP_HEADER_LEN
            elif ip.proto == PROTO_TCP:
                l4 = TCPHeader.unpack(data[offset:])
                offset += TCP_HEADER_LEN
        pkt = _new(cls)
        # Every byte of ``data`` is a parsed header or the payload.
        vars(pkt).update(
            eth=eth, ip=ip, l4=l4, payload=data[offset:], vlan=vlan, meta={},
            wire_size=max(len(data), MIN_FRAME_BYTES))
        return pkt
