"""Tests for the RedPlane protocol engine (the switch-side data plane)."""

import pytest

from repro import RedPlaneConfig, Simulator, deploy
from repro.apps.counter import SyncCounterApp
from repro.apps import NatApp
from repro.core.protocol import MessageType
from repro.net.links import LinkImpairment
from repro.net.packet import Packet


def send_flow_packets(sim, dep, n, sport=5555, gap_us=200.0, payload=b"x" * 40):
    """Send n packets of one flow from external e1 to internal s11."""
    e1 = dep.bed.externals[0]
    s11 = dep.bed.servers[0]
    got = []
    s11.default_handler = got.append
    for i in range(n):
        pkt = Packet.udp(e1.ip, s11.ip, sport, 7777, payload=payload)
        pkt.ip.identification = i
        sim.schedule(i * gap_us, e1.send, pkt)
    return got


def active_engine(dep):
    """The engine that actually processed traffic."""
    return max(dep.engines.values(), key=lambda e: e.stats["app_packets"])


def test_every_write_synchronously_replicated(sim, counter_deployment):
    got = send_flow_packets(sim, counter_deployment, 10)
    sim.run_until_idle()
    assert len(got) == 10
    eng = active_engine(counter_deployment)
    assert eng.stats["writes_replicated"] == 10
    assert eng.stats["piggybacks_released"] == 10
    # Store has the final count.
    key = got[0].flow_key()
    recs = [st.records.get(key) for st in counter_deployment.stores]
    assert all(rec is not None and rec.vals == [10] for rec in recs)


def test_output_not_released_before_store_ack(sim, counter_deployment):
    """Piggybacking: the packet leaves only after the update is durable."""
    dep = counter_deployment
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    got_times = []
    s11.default_handler = lambda pkt: got_times.append(sim.now)
    pkt = Packet.udp(e1.ip, s11.ip, 5555, 7777)
    e1.send(pkt)
    sim.run_until_idle()
    key = pkt.flow_key()
    # The delivery time must exceed a store round trip (several us), far
    # above the plain forwarding path (~4 us one way).
    assert got_times[0] > 15.0
    assert dep.stores[0].records[key].vals == [1]


def test_flow_state_and_lease_introspection(sim, counter_deployment):
    got = send_flow_packets(sim, counter_deployment, 3)
    sim.run_until_idle()
    key = got[0].flow_key()
    eng = active_engine(counter_deployment)
    assert eng.flow_state(key) == [3]
    assert eng.lease_valid(key)
    assert eng.flow_state(key.reversed()) is None


def test_lease_migrates_between_switches(sim, counter_deployment):
    """Fig 5 step 4: after a failure the other switch gets the state."""
    dep = counter_deployment
    got = send_flow_packets(sim, dep, 5)
    sim.run_until_idle()
    first = active_engine(dep)
    first_switch = first.switch
    key = got[0].flow_key()
    assert first.flow_state(key) == [5]

    # Fail the owning switch; ECMP reroutes to the other one.
    dep.bed.topology.fail_node(first_switch)
    sim.run(until=sim.now + 400_000)
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    for i in range(5):
        pkt = Packet.udp(e1.ip, s11.ip, 5555, 7777, payload=b"x" * 40)
        sim.schedule(i * 200, e1.send, pkt)
    sim.run_until_idle()
    other = dep.engines[
        [sw.name for sw in dep.bed.aggs if sw is not first_switch][0]
    ]
    # The replacement switch restored the count and continued it.
    assert other.flow_state(key) == [10]
    assert len(got) == 10


def test_stale_lease_ack_does_not_roll_back_state(sim, counter_deployment):
    """A duplicate LEASE_NEW_ACK must not clobber newer local state."""
    dep = counter_deployment
    got = send_flow_packets(sim, dep, 4)
    sim.run_until_idle()
    eng = active_engine(dep)
    key = got[0].flow_key()
    assert eng.flow_state(key) == [4]
    # Hand-craft a stale lease ack carrying the original value.
    from repro.core.protocol import RedPlaneMessage, make_protocol_packet, STORE_UDP_PORT, SWITCH_UDP_PORT

    stale = RedPlaneMessage(seq=1, msg_type=MessageType.LEASE_NEW_ACK,
                            flow_key=key, vals=[1], aux=1)
    pkt = make_protocol_packet(dep.stores[0].ip, eng.switch.ip, stale,
                               sport=STORE_UDP_PORT, dport=SWITCH_UDP_PORT)
    eng.switch.process(pkt)
    sim.run_until_idle()
    assert eng.flow_state(key) == [4]


def test_retransmission_recovers_lost_updates():
    """§5.2: replication survives request loss on the fabric."""
    sim = Simulator(seed=9)
    dep = deploy(sim, SyncCounterApp)
    dep.bed.impair_fabric(LinkImpairment(drop_rate=0.05))
    got = send_flow_packets(sim, dep, 30, gap_us=500.0)
    sim.run(until=10_000_000)
    eng = active_engine(dep)
    key = Packet.udp(dep.bed.externals[0].ip, dep.bed.servers[0].ip,
                     5555, 7777).flow_key()
    # Despite loss, the store eventually holds a state at least as new as
    # every released output (some outputs may be lost: that is permitted).
    rec = dep.stores[0].records[key]
    assert rec.vals == eng.flow_state(key)
    assert eng.stats["retransmissions"] > 0
    assert len(got) <= 30  # losses allowed, duplicates not


def test_reordering_never_regresses_store_state():
    sim = Simulator(seed=3)
    dep = deploy(sim, SyncCounterApp)
    dep.bed.impair_fabric(LinkImpairment(jitter_us=12.0))
    send_flow_packets(sim, dep, 40, gap_us=30.0)
    sim.run_until_idle()
    eng = active_engine(dep)
    key = Packet.udp(dep.bed.externals[0].ip, dep.bed.servers[0].ip,
                     5555, 7777).flow_key()
    rec = dep.stores[0].records[key]
    assert rec.vals == [40]
    assert rec.last_seq == 40


def test_read_heavy_flow_renews_lease(sim, nat_deployment):
    """§5.3: read-centric flows renew every 0.5 s without writes."""
    dep = nat_deployment
    s11, e1 = dep.bed.servers[0], dep.bed.servers[1]
    # NAT outbound: one write (table create), then reads only.
    dst = dep.bed.externals[0]
    got = []
    dst.default_handler = got.append
    from repro.net.packet import TCP_SYN

    for i in range(8):
        pkt = Packet.tcp(s11.ip, dst.ip, 7100, 80,
                         flags=TCP_SYN if i == 0 else 0)
        sim.schedule(i * 300_000.0, s11.send, pkt)  # over 2.4 s
    sim.run_until_idle()
    eng = active_engine(dep)
    assert eng.stats["lease_renewals"] >= 3
    assert len(got) == 8


def test_protocol_transit_traffic_not_app_processed(sim, counter_deployment):
    """Chain/store packets crossing a switch must bypass the app."""
    dep = counter_deployment
    send_flow_packets(sim, dep, 5)
    sim.run_until_idle()
    for eng in dep.engines.values():
        # 5 app packets + reinjected piggyback (lease) at the active switch;
        # chain traffic between store racks crossed switches but none of it
        # may appear as app packets.
        assert eng.stats["app_packets"] <= 6


def test_flow_table_capacity_enforced():
    sim = Simulator(seed=1)
    dep = deploy(sim, SyncCounterApp, config=RedPlaneConfig(max_flows=2))
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    with pytest.raises(RuntimeError):
        for i in range(50):
            pkt = Packet.udp(e1.ip, s11.ip, 6000 + i, 7777)
            e1.send(pkt)
            sim.run_until_idle()


def test_history_recording(sim):
    dep = deploy(sim, SyncCounterApp,
                 config=RedPlaneConfig(record_history=True))
    send_flow_packets(sim, dep, 6)
    sim.run_until_idle()
    eng = active_engine(dep)
    assert len(eng.history) == 6
    assert {e.trace_id for e in eng.history} == set(range(6))
