"""Byte-accurate packet model: Ethernet / IPv4 / UDP / TCP headers.

Packets carry real header fields and serialize to real bytes so that the
bandwidth experiments (Figs 10, 11, 15) count the same bytes a hardware
testbed would put on the wire. Application payloads (including the RedPlane
protocol header, Fig 4) live in :attr:`Packet.payload` as raw bytes; the
:mod:`repro.core.protocol` module packs and parses them.

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
from typing import Callable, Dict, Optional, TypeVar

T = TypeVar("T")

PROTO_TCP = 6
PROTO_UDP = 17

ETH_HEADER_LEN = 14
IPV4_HEADER_LEN = 20
UDP_HEADER_LEN = 8
TCP_HEADER_LEN = 20

#: Minimum Ethernet frame size (without FCS) used for wire-size accounting.
MIN_FRAME_BYTES = 60

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
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


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
        dst = int.from_bytes(data[0:6], "big")
        src = int.from_bytes(data[6:12], "big")
        (ethertype,) = struct.unpack("!H", data[12:14])
        return cls(src=src, dst=dst, ethertype=ethertype)


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
        src, dst = struct.unpack("!II", data[12:20])
        return cls(
            src=src,
            dst=dst,
            proto=proto,
            ttl=ttl,
            total_length=total_length,
            identification=ident,
            dscp=tos >> 2,
        )


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
        sport, dport, length, _csum = struct.unpack("!HHHH", data[:8])
        return cls(sport=sport, dport=dport, length=length)


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
        return cls(
            sport=sport,
            dport=dport,
            seq=seq,
            ack=ack,
            flags=off_flags & 0x1FF,
            window=window,
        )

    def has(self, flag: int) -> bool:
        return bool(self.flags & flag)


@dataclass(frozen=True)
class FlowKey:
    """An IP 5-tuple: the default RedPlane state-partitioning key."""

    src_ip: int
    dst_ip: int
    proto: int
    sport: int
    dport: int

    def reversed(self) -> "FlowKey":
        """The key of the reverse direction of this flow."""
        return FlowKey(self.dst_ip, self.src_ip, self.proto, self.dport, self.sport)

    def canonical(self) -> "FlowKey":
        """Direction-independent form (smaller endpoint first).

        Used when both directions of a connection must map to the same
        state partition, e.g. a NAT translation entry.
        """
        a = (self.src_ip, self.sport)
        b = (self.dst_ip, self.dport)
        return self if a <= b else self.reversed()

    def pack(self) -> bytes:
        return struct.pack("!IIBHH", self.src_ip, self.dst_ip, self.proto,
                           self.sport, self.dport)

    @classmethod
    def unpack(cls, data: bytes) -> "FlowKey":
        src_ip, dst_ip, proto, sport, dport = struct.unpack("!IIBHH", data[:13])
        return cls(src_ip, dst_ip, proto, sport, dport)

    PACKED_LEN = 13

    def __str__(self) -> str:
        return (
            f"{ip_ntoa(self.src_ip)}:{self.sport}->"
            f"{ip_ntoa(self.dst_ip)}:{self.dport}/{self.proto}"
        )


@dataclass
class Packet:
    """A simulated packet: parsed headers plus an opaque payload.

    ``meta`` is simulation-side metadata (timestamps, mirror state, trace
    ids); it does not exist on the wire and is *shared* across hops unless
    the packet is copied, which mirrors how annotations ride through a
    pipeline.
    """

    eth: EthernetHeader = field(default_factory=EthernetHeader)
    ip: Optional[IPv4Header] = None
    l4: Optional[object] = None  # UDPHeader | TCPHeader | None
    payload: bytes = b""
    vlan: Optional[int] = None
    meta: Dict[str, object] = field(default_factory=dict)

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
        ip = IPv4Header(src=src_ip, dst=dst_ip, proto=PROTO_UDP)
        udp = UDPHeader(sport=sport, dport=dport, length=UDP_HEADER_LEN + len(payload))
        ip.total_length = IPV4_HEADER_LEN + udp.length
        return cls(ip=ip, l4=udp, payload=payload, vlan=vlan)

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
        if self.ip is None:
            raise ValueError("packet has no IP header")
        sport = dport = 0
        if isinstance(self.l4, (UDPHeader, TCPHeader)):
            sport, dport = self.l4.sport, self.l4.dport
        return FlowKey(self.ip.src, self.ip.dst, self.ip.proto, sport, dport)

    def byte_size(self) -> int:
        """Wire size in bytes (headers + payload, >= minimum frame)."""
        size = ETH_HEADER_LEN
        if self.vlan is not None:
            size += 4
        if self.ip is not None:
            size += IPV4_HEADER_LEN
        l4 = self.l4
        if l4 is not None:
            if isinstance(l4, UDPHeader):
                size += UDP_HEADER_LEN
            elif isinstance(l4, TCPHeader):
                size += TCP_HEADER_LEN
        size += len(self.payload)
        return size if size > MIN_FRAME_BYTES else MIN_FRAME_BYTES

    def copy(self) -> "Packet":
        """Deep-enough copy: headers and meta are duplicated."""
        return Packet(
            eth=replace(self.eth),
            ip=replace(self.ip) if self.ip is not None else None,
            l4=replace(self.l4) if self.l4 is not None else None,
            payload=self.payload,
            vlan=self.vlan,
            meta=dict(self.meta),
        )

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
            out[12:14] = struct.pack("!H", 0x8100)
            out += struct.pack("!HH", self.vlan & 0x0FFF, 0x0800)
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
        if ethertype == 0x8100:
            tag, inner_type = struct.unpack("!HH", data[offset : offset + 4])
            vlan = tag & 0x0FFF
            ethertype = inner_type
            eth.ethertype = inner_type
            offset += 4
        ip = None
        l4: Optional[object] = None
        if ethertype == 0x0800:
            ip = IPv4Header.unpack(data[offset:])
            offset += IPV4_HEADER_LEN
            if ip.proto == PROTO_UDP:
                l4 = UDPHeader.unpack(data[offset:])
                offset += UDP_HEADER_LEN
            elif ip.proto == PROTO_TCP:
                l4 = TCPHeader.unpack(data[offset:])
                offset += TCP_HEADER_LEN
        return cls(eth=eth, ip=ip, l4=l4, payload=data[offset:], vlan=vlan)
