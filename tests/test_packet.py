"""Unit and property tests for the packet model."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import (
    EthernetHeader,
    FlowKey,
    IPv4Header,
    MIN_FRAME_BYTES,
    Packet,
    PROTO_TCP,
    PROTO_UDP,
    TCPHeader,
    TCP_ACK,
    TCP_SYN,
    UDPHeader,
    ip_aton,
    ip_ntoa,
    ipv4_checksum,
)

ips = st.integers(min_value=0, max_value=0xFFFFFFFF)
ports = st.integers(min_value=0, max_value=0xFFFF)


def test_ip_aton_ntoa_roundtrip():
    assert ip_ntoa(ip_aton("10.0.1.2")) == "10.0.1.2"
    assert ip_aton("255.255.255.255") == 0xFFFFFFFF
    assert ip_aton("0.0.0.0") == 0


@pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"])
def test_ip_aton_rejects_malformed(bad):
    with pytest.raises(ValueError):
        ip_aton(bad)


@given(ips)
def test_ip_roundtrip_property(value):
    assert ip_aton(ip_ntoa(value)) == value


def test_ip_ntoa_renders_what_the_joined_form_rendered():
    """The %-template is byte-equal to the generator form it replaced,
    and out-of-range values still raise."""
    import random

    def joined(value):
        return ".".join(str((value >> shift) & 0xFF)
                        for shift in (24, 16, 8, 0))

    rng = random.Random(57)
    for value in [0, 0xFFFFFFFF, 0x0A000102, 0x80000000] + [
            rng.getrandbits(32) for _ in range(2000)]:
        assert ip_ntoa(value) == joined(value)
    for bad in (-1, 0x100000000):
        with pytest.raises(ValueError, match="out of range"):
            ip_ntoa(bad)


def test_ipv4_checksum_validates():
    header = IPv4Header(src=ip_aton("1.2.3.4"), dst=ip_aton("5.6.7.8")).pack()
    # Re-checksumming a valid header (checksum field included) yields zero.
    assert ipv4_checksum(header) == 0


def test_eth_roundtrip():
    eth = EthernetHeader(src=0x112233445566, dst=0xAABBCCDDEEFF, ethertype=0x0800)
    assert EthernetHeader.unpack(eth.pack()) == eth


def test_udp_packet_roundtrip():
    pkt = Packet.udp(ip_aton("10.0.1.11"), ip_aton("172.16.0.11"), 1234, 80,
                     payload=b"hello world")
    back = Packet.from_bytes(pkt.to_bytes())
    assert back.ip.src == pkt.ip.src
    assert back.ip.dst == pkt.ip.dst
    assert isinstance(back.l4, UDPHeader)
    assert (back.l4.sport, back.l4.dport) == (1234, 80)
    assert back.payload == b"hello world"


def test_tcp_packet_roundtrip_with_flags():
    pkt = Packet.tcp(1, 2, 10, 20, seq=7, ack=9, flags=TCP_SYN | TCP_ACK,
                     payload=b"x")
    back = Packet.from_bytes(pkt.to_bytes())
    assert isinstance(back.l4, TCPHeader)
    assert back.l4.seq == 7 and back.l4.ack == 9
    assert back.l4.has(TCP_SYN) and back.l4.has(TCP_ACK)
    assert back.payload == b"x"


def test_vlan_tag_roundtrip():
    pkt = Packet.udp(1, 2, 3, 4, payload=b"p", vlan=100)
    back = Packet.from_bytes(pkt.to_bytes())
    assert back.vlan == 100
    assert back.payload == b"p"
    # The VLAN tag adds 4 bytes on the wire.
    assert pkt.byte_size() == Packet.udp(1, 2, 3, 4, payload=b"p").byte_size() + 4 or (
        pkt.byte_size() == MIN_FRAME_BYTES
    )


def test_min_frame_size_enforced():
    tiny = Packet.udp(1, 2, 3, 4)
    assert tiny.byte_size() == MIN_FRAME_BYTES


def test_byte_size_counts_headers_and_payload():
    pkt = Packet.udp(1, 2, 3, 4, payload=b"\x00" * 1000)
    assert pkt.byte_size() == 14 + 20 + 8 + 1000


def test_flow_key_and_reverse():
    pkt = Packet.udp(ip_aton("1.1.1.1"), ip_aton("2.2.2.2"), 10, 20)
    key = pkt.flow_key()
    assert key.proto == PROTO_UDP
    assert key.reversed().reversed() == key
    assert key.canonical() == key.reversed().canonical()


def test_flow_key_pack_roundtrip():
    key = FlowKey(ip_aton("9.8.7.6"), ip_aton("1.2.3.4"), PROTO_TCP, 443, 55555)
    assert FlowKey.unpack(key.pack()) == key
    assert len(key.pack()) == FlowKey.PACKED_LEN


@given(ips, ips, st.sampled_from([PROTO_TCP, PROTO_UDP]), ports, ports)
def test_flow_key_roundtrip_property(src, dst, proto, sport, dport):
    key = FlowKey(src, dst, proto, sport, dport)
    assert FlowKey.unpack(key.pack()) == key


@given(
    ips, ips, ports, ports,
    st.binary(min_size=0, max_size=300),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4094)),
)
def test_udp_serialization_roundtrip_property(src, dst, sport, dport, payload, vlan):
    pkt = Packet.udp(src, dst, sport, dport, payload=payload, vlan=vlan)
    back = Packet.from_bytes(pkt.to_bytes())
    assert back.ip.src == src and back.ip.dst == dst
    assert back.l4.sport == sport and back.l4.dport == dport
    assert back.payload == payload
    assert back.vlan == vlan


def test_copy_is_independent():
    pkt = Packet.udp(1, 2, 3, 4, payload=b"z")
    pkt.meta["k"] = "v"
    dup = pkt.copy()
    dup.ip.src = 99
    dup.meta["k"] = "other"
    assert pkt.ip.src == 1
    assert pkt.meta["k"] == "v"


def test_flow_key_without_ip_raises():
    with pytest.raises(ValueError):
        Packet().flow_key()


def test_flow_key_str_is_readable():
    key = FlowKey(ip_aton("10.0.0.1"), ip_aton("10.0.0.2"), PROTO_UDP, 1, 2)
    assert "10.0.0.1:1" in str(key)


# -- the FlowKey contract ------------------------------------------------------


def test_flow_key_contract():
    """A key is the tuple of its five fields, and prints, reverses,
    orders and hashes as the frozen dataclass it replaced did, so set
    and dict orders, traces and verdicts do not move."""
    import pickle

    raw = (ip_aton("10.0.1.11"), ip_aton("192.0.2.1"), PROTO_UDP, 5000, 7777)
    key = FlowKey(*raw)
    assert repr(key) == ("FlowKey(src_ip=167772427, dst_ip=3221225985, "
                         "proto=17, sport=5000, dport=7777)")
    assert str(key) == "10.0.1.11:5000->192.0.2.1:7777/17"
    assert (key.src_ip, key.dst_ip, key.proto, key.sport, key.dport) == raw
    assert key == raw and hash(key) == hash(raw)
    back = key.reversed()
    assert type(back) is FlowKey
    assert back == (raw[1], raw[0], PROTO_UDP, 7777, 5000)
    assert key.canonical() is key and back.canonical() == key
    assert type(back.canonical()) is FlowKey
    keys = [FlowKey(2, 1, 6, 0, 0), back, key, FlowKey(2, 1, 6, 0, 1)]
    assert sorted(keys) == sorted(keys, key=tuple)
    assert FlowKey(2, 1, 6, 0, 0) < FlowKey(2, 1, 6, 0, 1)
    again = pickle.loads(pickle.dumps(key))
    assert type(again) is FlowKey and again == key
    assert type(FlowKey.unpack(key.pack())) is FlowKey
    with pytest.raises(AttributeError):
        key.sport = 1


# -- wire size fixed at construction ---------------------------------------------


def _built_by_constructors(pkt):
    """The same packet through the dataclass constructors."""
    return Packet(
        eth=EthernetHeader(),
        ip=IPv4Header(**vars(pkt.ip)),
        l4=type(pkt.l4)(**vars(pkt.l4)),
        payload=pkt.payload,
        vlan=pkt.vlan,
    )


@given(
    ips, ips, ports, ports,
    st.binary(min_size=0, max_size=100),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4094)),
    st.booleans(),
)
def test_factories_build_the_constructors_packet_and_its_wire_size(
        src, dst, sport, dport, payload, vlan, tcp):
    if tcp:
        pkt = Packet.tcp(src, dst, sport, dport, seq=5, ack=6, flags=TCP_SYN,
                         payload=payload, vlan=vlan)
        assert pkt.l4 == TCPHeader(sport=sport, dport=dport, seq=5, ack=6,
                                   flags=TCP_SYN)
        assert pkt.ip == IPv4Header(src=src, dst=dst, proto=PROTO_TCP,
                                    total_length=40 + len(payload))
    else:
        pkt = Packet.udp(src, dst, sport, dport, payload=payload, vlan=vlan)
        assert pkt.l4 == UDPHeader(sport=sport, dport=dport,
                                   length=8 + len(payload))
        assert pkt.ip == IPv4Header(src=src, dst=dst, proto=PROTO_UDP,
                                    total_length=28 + len(payload))
    assert pkt == _built_by_constructors(pkt)
    back = Packet.from_bytes(pkt.to_bytes())
    for built in (pkt, _built_by_constructors(pkt), back, pkt.copy()):
        assert built.wire_size == built.byte_size() == pkt.byte_size()
    assert back == pkt


def test_a_size_changing_edit_after_construction_raises():
    pkt = Packet.udp(1, 2, 3, 4, payload=b"\x00" * 100)
    assert pkt.wire_size == 142
    pkt.payload = b"\x01" * 100  # same size: an in-place rewrite
    pkt.ip.src = 9               # header fields change freely
    pkt.l4 = UDPHeader(sport=5, dport=6)
    for name, value in (("payload", b"\x01" * 101), ("vlan", 7),
                        ("l4", TCPHeader()), ("ip", None)):
        with pytest.raises(ValueError, match="wire size"):
            setattr(pkt, name, value)
    assert pkt.payload == b"\x01" * 100 and pkt.vlan is None
    assert isinstance(pkt.l4, UDPHeader) and pkt.ip.src == 9
    assert pkt.wire_size == pkt.byte_size() == 142
    small = pkt.with_payload(b"")
    assert small.wire_size == small.byte_size() == MIN_FRAME_BYTES
    # The length fields follow the new payload; every other header field
    # is copied, and the original keeps its own.
    big = pkt.with_payload(b"\x02" * 200)
    for copy, lengths in ((small, (28, 8)), (big, (228, 208))):
        assert (copy.ip.total_length, copy.l4.length) == lengths
        assert copy.ip is not pkt.ip and copy.l4 is not pkt.l4
        assert replace(copy.ip, total_length=pkt.ip.total_length) == pkt.ip
        assert replace(copy.l4, length=pkt.l4.length) == pkt.l4
        assert copy.eth == pkt.eth and copy.vlan == pkt.vlan
    assert (pkt.ip.total_length, pkt.l4.length) == (128, 8)
    assert Packet.from_bytes(big.to_bytes()) == big
    assert pkt.wire_size == 142
    # Under the minimum frame a rewrite that keeps 60 bytes is no change.
    tiny = Packet.udp(1, 2, 3, 4)
    tiny.payload = b"\x00" * 4
    assert tiny.wire_size == tiny.byte_size() == MIN_FRAME_BYTES
