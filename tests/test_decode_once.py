"""Decode once: a receiver gets the object its sender encoded.

``make_protocol_packet`` and the store's chain sends record the encoded
object beside the payload bytes (``Packet.attach_decoded``), and
``Packet.decoded`` returns it while the payload is still those bytes.
The codec is the definition of the wire format, so the contract is
checked against it: every reused object must equal, type for type, what
the real decoder makes of the packet's bytes at the moment of receipt,
and still equal it when the run is over (nobody mutated a shared
message). The hot path never decodes at all.
"""

from __future__ import annotations

import collections
import dataclasses
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import RedPlaneConfig, Simulator, deploy
from repro.apps import (
    BUILTIN_APPS,
    NAT_PUBLIC_IP,
    OP_READ,
    OP_UPDATE,
    VIP,
    make_data_packet,
    make_request,
    make_sequenced_request,
    make_signaling_packet,
    syn_cookie,
)
from repro.apps.counter import SyncCounterApp
from repro.chaos import CAMPAIGNS, run_campaign
from repro.core.protocol import (
    MessageType,
    RedPlaneMessage,
    STORE_UDP_PORT,
    make_protocol_packet,
    parse_protocol_packet,
)
from repro.net.links import LinkImpairment
from repro.net.packet import TCP_ACK, TCP_SYN, FlowKey, Packet
from repro.scenarios import get_scenario
from repro.statestore import codec


def _same(a, b) -> bool:
    """Equal and of the same type all the way down: lists stay lists,
    ``MessageType`` members stay members, keys stay ``FlowKey``."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return a == b


class Probe:
    """Wraps ``Packet.decoded``: every reused object is checked against
    the real decoder; every real decode is counted as a fallback."""

    def __init__(self) -> None:
        self.reused = 0
        self.fallbacks = 0
        self.mismatches = []
        #: Message types (and chain kinds) handed to receivers.
        self.kinds = collections.Counter()
        self._seen = []

    def wrap(self, real):
        probe = self

        def decoded(pkt, decode):
            ran = []

            def counted(payload):
                ran.append(True)
                return decode(payload)

            out = real(pkt, counted)
            if ran:
                probe.fallbacks += 1
            else:
                probe.reused += 1
                fresh = decode(pkt.payload)
                if not _same(out, fresh):
                    probe.mismatches.append((out, fresh))
                probe._seen.append((out, pkt.payload, decode))
            probe.kinds[out.msg_type if isinstance(out, RedPlaneMessage)
                        else ("chain", out[0])] += 1
            return out

        return decoded

    def still_equal(self) -> bool:
        """No receiver (or sender) mutated an object after it was handed
        over: each still decodes from the bytes it rode with."""
        return all(_same(obj, decode(payload))
                   for obj, payload, decode in self._seen)

    def assert_clean(self) -> None:
        assert self.reused > 0
        assert self.mismatches == []
        assert self.fallbacks == 0
        assert self.still_equal()


@pytest.fixture
def probe(monkeypatch):
    p = Probe()
    monkeypatch.setattr(Packet, "decoded", p.wrap(Packet.decoded))
    return p


# -- equivalence over whole runs -----------------------------------------------


@pytest.mark.parametrize("name", ["quickstart", "nat_quickstart"])
def test_registry_quickstarts(probe, name):
    """Owner fails, the second burst buffers at the store, the lease
    migrates: pending requests and the migration grant are reused too."""
    sim = Simulator(seed=7)
    get_scenario(name).run(sim)
    probe.assert_clean()
    assert probe.kinds[MessageType.LEASE_NEW_ACK] >= 2
    assert sim.metrics.total("store.requests_buffered") > 0


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_named_chaos_campaigns(probe, name):
    report = run_campaign(name, seed=42)
    assert report["verdict"] == "PASS"
    probe.assert_clean()
    assert probe.kinds[("chain", codec.CHAIN_UPDATE)] > 0


def _drive(name, dep):
    """A short, app-appropriate traffic mix: first packets take leases,
    quick follow-ups are read-gated behind in-flight writes, and reads
    after the renew interval renew the lease."""
    sim, bed = dep.sim, dep.bed
    e1, s11 = bed.externals[0], bed.servers[0]
    sends = []  # (time_us, host, packet)
    times = [0.0, 5.0, 10.0, 60_000.0, 120_000.0]
    if name == "nat":
        sends += [(t, s11, Packet.tcp(s11.ip, e1.ip, 7000, 80,
                                      flags=TCP_SYN if t == 0 else TCP_ACK))
                  for t in times]
        sends.append((30.0, e1, Packet.tcp(e1.ip, NAT_PUBLIC_IP, 80, 7000,
                                           flags=TCP_ACK)))
    elif name == "firewall":
        sends.append((0.0, s11, Packet.tcp(s11.ip, e1.ip, 7000, 80,
                                           flags=TCP_SYN)))
        sends += [(t + 1.0, e1, Packet.tcp(e1.ip, s11.ip, 80, 7000,
                                           flags=TCP_ACK)) for t in times]
    elif name == "kv_store":
        sends.append((0.0, e1, make_request(e1.ip, OP_UPDATE, key=3,
                                            value=9)))
        sends += [(t + 20.0, e1, make_request(e1.ip, OP_READ, key=3))
                  for t in times]
    elif name == "load_balancer":
        sends += [(t, e1, Packet.tcp(e1.ip, VIP, 12345, 80,
                                     flags=TCP_SYN if t == 0 else TCP_ACK))
                  for t in times]
    elif name == "epc_sgw":
        sends.append((0.0, e1, make_signaling_packet(e1.ip, s11.ip, 5, 77)))
        sends += [(t + 1.0, e1, make_data_packet(e1.ip, s11.ip, 5, 77))
                  for t in times]
    elif name == "sequencer":
        sends += [(t, s11, make_sequenced_request(s11.ip, 1, e1.ip))
                  for t in times]
    elif name == "syn_defense":
        cookie = syn_cookie(e1.ip, 4000)
        sends.append((0.0, e1, Packet.tcp(e1.ip, s11.ip, 4000, 80,
                                          flags=TCP_SYN)))
        sends.append((2_000.0, e1, Packet.tcp(e1.ip, s11.ip, 4000, 80,
                                              ack=cookie + 1, flags=TCP_ACK)))
        sends += [(t + 4_000.0, e1, Packet.tcp(e1.ip, s11.ip, 4000, 80,
                                               flags=TCP_ACK)) for t in times]
    else:  # counters and sketches key on any UDP flow (vlan 10 for hh)
        sends += [(t, e1, Packet.udp(e1.ip, s11.ip, 5555, 7777, vlan=10))
                  for t in times]
    for t, host, pkt in sends:
        sim.schedule_at(t, host.send, pkt)
    # A snapshot app's packet generator runs every slot every period:
    # two periods are plenty, and a long run costs millions of events.
    sim.run(until=2_500.0 if dep.replicators else 150_000.0)
    for rep in dep.replicators.values():
        rep.stop()
    sim.run_until_idle()


def test_every_builtin_app(probe):
    """All eleven apps through ``deploy()``: together they exchange every
    message type (snapshot, read-buffer and lease-renew included)."""
    config = RedPlaneConfig(renew_interval_us=50_000.0)
    for name in sorted(BUILTIN_APPS):
        before = probe.reused
        _drive(name, deploy(Simulator(seed=3), BUILTIN_APPS[name],
                            config=config))
        assert probe.reused > before, name
    probe.assert_clean()
    assert set(MessageType) <= set(probe.kinds)


def test_lossy_sync_counter_with_resends(probe):
    sim = Simulator(seed=11)
    dep = deploy(sim, SyncCounterApp)
    dep.bed.impair_fabric(LinkImpairment(drop_rate=0.02))
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    for i in range(300):
        sim.schedule_at(i * 20.0, e1.send,
                        Packet.udp(e1.ip, s11.ip, 5555, 7777))
    sim.run_until_idle()
    probe.assert_clean()
    assert sim.metrics.total("redplane.retransmissions") > 0


# -- zero decodes on the hot path ----------------------------------------------


DECODERS = {
    RedPlaneMessage.unpack.__func__.__code__: "RedPlaneMessage.unpack",
    codec.unpack_chain_update.__code__: "unpack_chain_update",
    FlowKey.unpack.__func__.__code__: "FlowKey.unpack",
}


def test_counter_write_shape_never_decodes():
    """One Sync-Counter flow, 3 500 packets 10 us apart: the benchmark's
    write path. Before receivers took the sender's object (and while the
    chain still acked each update hop by hop) this run made 14 008 /
    7 004 / 28 016 calls to the message, chain-update and key decoders;
    now it makes none."""
    sim = Simulator(seed=0)
    dep = deploy(sim, SyncCounterApp)
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    for i in range(3500):
        sim.schedule_at(i * 10.0, e1.send,
                        Packet.udp(e1.ip, s11.ip, 5555, 7777))
    calls = collections.Counter()

    def prof(frame, event, arg):
        if event == "call" and frame.f_code in DECODERS:
            calls[DECODERS[frame.f_code]] += 1

    sys.setprofile(prof)
    try:
        sim.run_until_idle()
    finally:
        sys.setprofile(None)
    assert s11.rx_packets == 3500
    assert sim.metrics.total("redplane.writes_replicated") == 3500
    assert dict(calls) == {}


# -- the bytes stay authoritative ----------------------------------------------


def _msg(seq, key=FlowKey(1, 2, 17, 3, 4)):
    return RedPlaneMessage(seq=seq, msg_type=MessageType.REPL_WRITE_REQ,
                           flow_key=key, vals=[seq * 10])


def test_a_rewritten_payload_parses_to_the_new_bytes(probe):
    sent = _msg(5)
    pkt = make_protocol_packet(1, 2, sent)
    assert parse_protocol_packet(pkt) is sent
    pkt.payload = _msg(6).pack()
    got = parse_protocol_packet(pkt)
    assert got == _msg(6) and probe.fallbacks == 1
    assert _same(got, RedPlaneMessage.unpack(pkt.payload))


def test_a_packet_rebuilt_from_wire_bytes_gets_a_real_parse(probe):
    pkt = make_protocol_packet(1, 2, _msg(5), dport=STORE_UDP_PORT)
    again = Packet.from_bytes(pkt.to_bytes())
    again.meta.update(pkt.meta)  # even with the sender's record copied over
    assert parse_protocol_packet(again) == _msg(5)
    assert probe.fallbacks == 1 and probe.reused == 0


def test_copies_share_the_record_with_the_bytes(probe):
    pkt = make_protocol_packet(1, 2, _msg(5))
    dup = pkt.copy()
    assert parse_protocol_packet(dup) is parse_protocol_packet(pkt)
    assert probe.fallbacks == 0 and probe.reused == 2


flow_keys = st.builds(
    FlowKey,
    st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
    st.sampled_from([6, 17]),
    st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
)


@settings(max_examples=50, deadline=None)
@given(st.builds(
    RedPlaneMessage,
    seq=st.integers(0, 2**32 - 1),
    msg_type=st.sampled_from(list(MessageType)),
    flow_key=flow_keys,
    vals=st.lists(st.integers(0, 2**32 - 1), max_size=6),
    piggyback=st.one_of(st.none(), st.binary(max_size=64)),
    aux=st.integers(0, 2**16 - 1),
))
def test_the_recorded_message_is_what_the_bytes_decode_to(msg):
    pkt = make_protocol_packet(1, 2, msg)
    assert _same(parse_protocol_packet(pkt),
                 RedPlaneMessage.unpack(pkt.payload))
