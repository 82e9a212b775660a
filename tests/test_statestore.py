"""Tests for the state store: leases, sequencing, buffering, chains."""

import pytest

from repro.core.protocol import (
    MessageType,
    RedPlaneMessage,
    STORE_UDP_PORT,
    SWITCH_UDP_PORT,
    make_protocol_packet,
    parse_protocol_packet,
)
from repro.net.links import Link
from repro.net.hosts import Host
from repro.net.packet import FlowKey, Packet
from repro.net.routing import L3Switch
from repro.net.simulator import Simulator
from repro.statestore.server import StateStoreNode, build_chain, reconfigure_chain

KEY = FlowKey(1, 2, 17, 10, 20)
LEASE_US = 10_000.0


class FakeSwitch(Host):
    """A host standing in for a RedPlane switch: collects acks."""

    def __init__(self, sim, name, ip):
        super().__init__(sim, name, ip)
        self.acks = []
        self.bind(SWITCH_UDP_PORT, lambda pkt: self.acks.append(
            parse_protocol_packet(pkt)))

    def request(self, store_ip, msg):
        self.send(make_protocol_packet(self.ip, store_ip, msg))


def micro_net(sim, num_switches=1, num_stores=1, lease_us=LEASE_US):
    """A hub switch connecting fake switches and store nodes."""
    hub = L3Switch(sim, "hub")
    switches = []
    stores = []
    for i in range(num_switches):
        sw = FakeSwitch(sim, f"fsw{i}", 0x0AFE0001 + i)
        link = Link(sim, hub.new_port(), sw.nic)
        hub.table.add(sw.ip, 32, [link.a])
        switches.append(sw)
    for i in range(num_stores):
        st = StateStoreNode(sim, f"fst{i}", 0x0AFE0100 + i, lease_period_us=lease_us)
        link = Link(sim, hub.new_port(), st.nic)
        hub.table.add(st.ip, 32, [link.a])
        stores.append(st)
    return hub, switches, stores


def test_lease_new_grants_fresh_flow():
    sim = Simulator()
    _hub, (sw,), (store,) = micro_net(sim)
    sw.request(store.ip, RedPlaneMessage(0, MessageType.LEASE_NEW_REQ, KEY))
    sim.run_until_idle()
    assert len(sw.acks) == 1
    ack = sw.acks[0]
    assert ack.msg_type is MessageType.LEASE_NEW_ACK
    assert ack.aux == 0  # fresh flow
    rec = store.records[KEY]
    assert rec.owner_ip == sw.ip
    assert rec.lease_expiry > sim.now


def test_write_applies_and_renews_lease():
    sim = Simulator()
    _hub, (sw,), (store,) = micro_net(sim)
    sw.request(store.ip, RedPlaneMessage(1, MessageType.REPL_WRITE_REQ, KEY,
                                         vals=[42]))
    sim.run_until_idle()
    rec = store.records[KEY]
    assert rec.vals == [42]
    assert rec.last_seq == 1
    assert sw.acks[-1].msg_type is MessageType.REPL_WRITE_ACK


def test_stale_update_never_overwrites_newer(sim=None):
    """Fig 6b: sequencing rejects out-of-order replication requests."""
    sim = Simulator()
    _hub, (sw,), (store,) = micro_net(sim)
    sw.request(store.ip, RedPlaneMessage(2, MessageType.REPL_WRITE_REQ, KEY,
                                         vals=[4]))
    sim.run_until_idle()
    sw.request(store.ip, RedPlaneMessage(1, MessageType.REPL_WRITE_REQ, KEY,
                                         vals=[3]))
    sim.run_until_idle()
    rec = store.records[KEY]
    assert rec.vals == [4]
    assert rec.last_seq == 2
    assert store.updates_rejected_stale == 1
    # The stale request is still acknowledged, with the newer seq.
    assert sw.acks[-1].seq == 2


def test_piggyback_echoed_in_ack():
    sim = Simulator()
    _hub, (sw,), (store,) = micro_net(sim)
    inner = Packet.udp(9, 8, 7, 6, payload=b"held").to_bytes()
    sw.request(store.ip, RedPlaneMessage(1, MessageType.REPL_WRITE_REQ, KEY,
                                         vals=[1], piggyback=inner))
    sim.run_until_idle()
    assert sw.acks[-1].piggyback == inner


def test_second_switch_buffered_until_lease_expires():
    """Fig 7b: only one switch holds a lease; others wait."""
    sim = Simulator()
    _hub, (sw1, sw2), (store,) = micro_net(sim, num_switches=2)
    sw1.request(store.ip, RedPlaneMessage(1, MessageType.REPL_WRITE_REQ, KEY,
                                          vals=[7]))
    sim.run(until=1_000)
    sw2.request(store.ip, RedPlaneMessage(0, MessageType.LEASE_NEW_REQ, KEY))
    sim.run(until=5_000)
    assert sw2.acks == []  # buffered: sw1's lease is active
    assert store.requests_buffered == 1
    sim.run_until_idle()
    assert len(sw2.acks) == 1
    ack = sw2.acks[0]
    assert ack.msg_type is MessageType.LEASE_NEW_ACK
    assert ack.aux == 1            # migrated state
    assert ack.vals == [7]          # latest value travels to the new owner
    assert ack.seq == 1
    # Grant happens only after the first lease expired.
    assert sim.now >= 1_000 + LEASE_US - 1_000


def test_same_switch_lease_new_not_buffered():
    sim = Simulator()
    _hub, (sw,), (store,) = micro_net(sim)
    sw.request(store.ip, RedPlaneMessage(0, MessageType.LEASE_NEW_REQ, KEY))
    sim.run_until_idle()
    sw.request(store.ip, RedPlaneMessage(0, MessageType.LEASE_NEW_REQ, KEY))
    sim.run_until_idle()
    assert len(sw.acks) == 2  # owner re-requesting is served immediately


def test_duplicate_headerless_lease_requests_deduped_while_buffered():
    sim = Simulator()
    _hub, (sw1, sw2), (store,) = micro_net(sim, num_switches=2)
    sw1.request(store.ip, RedPlaneMessage(1, MessageType.REPL_WRITE_REQ, KEY,
                                          vals=[1]))
    sim.run(until=1_000)
    # Retransmissions (no piggyback) of the same buffered lease request.
    for _ in range(5):
        sw2.request(store.ip, RedPlaneMessage(0, MessageType.LEASE_NEW_REQ, KEY))
        sim.run(until=sim.now + 100)
    assert len(store.records[KEY].pending) == 1
    # Piggybacked requests are distinct buffered packets: all kept.
    pb = Packet.udp(1, 2, 3, 4).to_bytes()
    sw2.request(store.ip, RedPlaneMessage(
        0, MessageType.LEASE_NEW_REQ, KEY, piggyback=pb))
    sim.run(until=sim.now + 100)
    assert len(store.records[KEY].pending) == 2


def test_read_buffer_bounces_without_mutation():
    sim = Simulator()
    _hub, (sw,), (store,) = micro_net(sim)
    inner = Packet.udp(1, 2, 3, 4).to_bytes()
    sw.request(store.ip, RedPlaneMessage(5, MessageType.READ_BUFFER_REQ, KEY,
                                         piggyback=inner))
    sim.run_until_idle()
    ack = sw.acks[-1]
    assert ack.msg_type is MessageType.READ_BUFFER_ACK
    assert ack.piggyback == inner
    assert KEY in store.records and store.records[KEY].owner_ip is None


def test_snapshot_epoch_filtering():
    sim = Simulator()
    _hub, (sw,), (store,) = micro_net(sim)
    sw.request(store.ip, RedPlaneMessage(2, MessageType.SNAPSHOT_REPL_REQ, KEY,
                                         vals=[20], aux=3))
    sim.run_until_idle()
    sw.request(store.ip, RedPlaneMessage(1, MessageType.SNAPSHOT_REPL_REQ, KEY,
                                         vals=[10], aux=3))
    sim.run_until_idle()
    rec = store.records[KEY]
    assert rec.snapshot_vals[3] == 20  # older epoch rejected
    assert rec.snapshot_seqs[3] == 2


def test_chain_replication_converges_and_tail_replies():
    sim = Simulator()
    _hub, (sw,), stores = micro_net(sim, num_stores=3)
    build_chain(stores)
    head = stores[0]
    sw.request(head.ip, RedPlaneMessage(1, MessageType.REPL_WRITE_REQ, KEY,
                                        vals=[99]))
    sim.run_until_idle()
    for node in stores:
        assert node.records[KEY].vals == [99]
        assert node.records[KEY].last_seq == 1
    # The reply comes from the tail.
    assert len(sw.acks) == 1


def test_chain_reconfiguration_skips_failed_node():
    sim = Simulator()
    _hub, (sw,), stores = micro_net(sim, num_stores=3)
    build_chain(stores)
    stores[1].fail()
    alive = reconfigure_chain(stores)
    assert [n.name for n in alive] == ["fst0", "fst2"]
    sw.request(stores[0].ip, RedPlaneMessage(
        1, MessageType.REPL_WRITE_REQ, KEY, vals=[5]))
    sim.run_until_idle()
    assert stores[2].records[KEY].vals == [5]
    assert len(sw.acks) == 1


def test_switch_resend_heals_an_update_stranded_by_a_splice():
    """A mid-chain node dies holding the head's update: the head applied
    the write, but the tail never sees it and the requester never hears
    back. The splice only rewires; the switch's resend is a duplicate the
    head answers by pushing its current record down the new chain, and a
    further resend changes nothing."""
    sim = Simulator()
    _hub, (sw,), stores = micro_net(sim, num_stores=3)
    build_chain(stores)
    stores[1].fail()  # the head's downstream hop swallows the update
    write = RedPlaneMessage(1, MessageType.REPL_WRITE_REQ, KEY, vals=[42])
    sw.request(stores[0].ip, write)
    sim.run_until_idle()
    assert stores[0].records[KEY].vals == [42]
    assert KEY not in stores[2].records
    assert sw.acks == []

    alive = reconfigure_chain(stores)
    sim.run_until_idle()
    assert [n.name for n in alive] == ["fst0", "fst2"]
    assert KEY not in stores[2].records  # the splice itself re-sends nothing
    assert sw.acks == []

    for _resend in range(2):
        sw.request(stores[0].ip, write)
        sim.run_until_idle()
    assert stores[0].updates_rejected_stale == 2
    for node in alive:
        assert node.records[KEY].vals == [42]
        assert node.records[KEY].last_seq == 1
    # At-least-once: the switch dedups acks by sequence number.
    assert [ack.seq for ack in sw.acks] == [1, 1]


def test_allocator_initializes_fresh_flows():
    sim = Simulator()
    hub, (sw,), _ = micro_net(sim, num_stores=0)
    store = StateStoreNode(sim, "alloc", 0x0AFE0200, lease_period_us=LEASE_US)
    store.allocator = lambda key: [key.sport + 1000]
    link = Link(sim, hub.new_port(), store.nic)
    hub.table.add(store.ip, 32, [link.a])
    sw.request(store.ip, RedPlaneMessage(0, MessageType.LEASE_NEW_REQ, KEY))
    sim.run_until_idle()
    assert sw.acks[0].vals == [KEY.sport + 1000]


def test_empty_chain_rejected():
    with pytest.raises(ValueError):
        build_chain([])


def test_single_node_chain_serves_and_survives_reconfiguration():
    """A chain of one is legal: the head is also the tail (no
    propagation), and reconfiguring it is a no-op."""
    sim = Simulator()
    _hub, (sw,), (store,) = micro_net(sim)
    build_chain([store])
    assert store.successor_ip is None
    sw.request(store.ip, RedPlaneMessage(1, MessageType.REPL_WRITE_REQ, KEY,
                                         vals=[11]))
    sim.run_until_idle()
    assert len(sw.acks) == 1
    alive = reconfigure_chain([store])
    assert alive == [store]
    sw.request(store.ip, RedPlaneMessage(2, MessageType.REPL_WRITE_REQ, KEY,
                                         vals=[12]))
    sim.run_until_idle()
    assert len(sw.acks) == 2
    assert store.records[KEY].vals == [12]


def test_repeated_reconfiguration_down_to_one_node():
    """The chain shrinks fault by fault; writes keep committing after
    every splice."""
    sim = Simulator()
    _hub, (sw,), stores = micro_net(sim, num_stores=3)
    build_chain(stores)

    stores[1].fail()
    alive = reconfigure_chain(stores)
    assert [n.name for n in alive] == ["fst0", "fst2"]
    sw.request(stores[0].ip, RedPlaneMessage(
        1, MessageType.REPL_WRITE_REQ, KEY, vals=[1]))
    sim.run_until_idle()
    assert len(sw.acks) == 1
    assert stores[2].records[KEY].vals == [1]

    stores[2].fail()
    alive = reconfigure_chain(stores)
    assert [n.name for n in alive] == ["fst0"]
    assert stores[0].successor_ip is None
    sw.request(stores[0].ip, RedPlaneMessage(
        2, MessageType.REPL_WRITE_REQ, KEY, vals=[2]))
    sim.run_until_idle()
    assert len(sw.acks) == 2          # the lone survivor replies itself
    assert stores[0].records[KEY].vals == [2]
    assert stores[0].records[KEY].last_seq == 2
