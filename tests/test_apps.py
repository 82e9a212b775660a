"""Behavioural tests for the six in-switch applications."""

import pytest

from repro import Simulator, deploy
from repro.apps import (
    EpcSgwApp,
    FirewallApp,
    HeavyHitterApp,
    KvStoreApp,
    LoadBalancerApp,
    NatApp,
    NAT_PUBLIC_IP,
    VIP,
    make_data_packet,
    make_request,
    make_signaling_packet,
    parse_reply,
    OP_READ,
    OP_UPDATE,
)
from repro.apps.heavy_hitter import vlan_store_key
from repro.net.packet import Packet, TCP_SYN, TCP_ACK, ip_ntoa
from tests.conftest import stop_snapshots


# ---------------------------------------------------------------------------
# NAT
# ---------------------------------------------------------------------------


class TestNat:
    def test_outbound_snat_and_inbound_dnat(self, sim, nat_deployment):
        dep = nat_deployment
        s11, e1 = dep.bed.servers[0], dep.bed.externals[0]
        seen_ext, seen_int = [], []
        e1.default_handler = seen_ext.append
        s11.default_handler = seen_int.append

        s11.send(Packet.tcp(s11.ip, e1.ip, 7000, 80, flags=TCP_SYN))
        sim.run_until_idle()
        assert seen_ext[0].ip.src == NAT_PUBLIC_IP  # source translated

        e1.send(Packet.tcp(e1.ip, NAT_PUBLIC_IP, 80, 7000, flags=TCP_SYN | TCP_ACK))
        sim.run_until_idle()
        assert seen_int[0].ip.dst == s11.ip  # destination restored

    def test_unsolicited_inbound_dropped(self, sim, nat_deployment):
        dep = nat_deployment
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        seen_int = []
        s11.default_handler = seen_int.append
        e1.send(Packet.tcp(e1.ip, NAT_PUBLIC_IP, 80, 9999, flags=TCP_ACK))
        sim.run_until_idle()
        assert seen_int == []

    def test_translation_survives_switch_failure(self, sim, nat_deployment):
        """Table 1 / Fig 1: with RedPlane the connection is NOT broken."""
        dep = nat_deployment
        s11, e1 = dep.bed.servers[0], dep.bed.servers[0],
        s11, e1 = dep.bed.servers[0], dep.bed.externals[0]
        seen_int = []
        s11.default_handler = seen_int.append
        s11.send(Packet.tcp(s11.ip, e1.ip, 7000, 80, flags=TCP_SYN))
        sim.run_until_idle()

        owner = max(dep.engines.values(), key=lambda e: e.stats["app_packets"])
        dep.bed.topology.fail_node(owner.switch)
        sim.run(until=sim.now + 400_000)

        e1.send(Packet.tcp(e1.ip, NAT_PUBLIC_IP, 80, 7000, flags=TCP_ACK))
        sim.run_until_idle()
        assert len(seen_int) == 1
        assert seen_int[0].ip.dst == s11.ip

    def test_translation_lost_without_redplane(self, sim):
        """The failure impact the paper motivates with Fig 1."""
        from repro.baselines import PlainAppBlock
        from repro.net.topology import build_testbed
        from repro.switch.asic import SwitchASIC

        bed = build_testbed(
            sim, agg_factory=lambda s, n, ip: SwitchASIC(s, n, ip)
        )
        blocks = {}
        for agg in bed.aggs:
            block = PlainAppBlock(agg, NatApp())
            agg.add_block(block)
            blocks[agg.name] = block
        block.app.provision(bed, [])
        s11, e1 = bed.servers[0], bed.externals[0]
        seen_int = []
        s11.default_handler = seen_int.append
        s11.send(Packet.tcp(s11.ip, e1.ip, 7000, 80, flags=TCP_SYN))
        sim.run_until_idle()

        owner = max(bed.aggs, key=lambda a: blocks[a.name].packets)
        bed.topology.fail_node(owner)
        sim.run(until=sim.now + 400_000)
        e1.send(Packet.tcp(e1.ip, NAT_PUBLIC_IP, 80, 7000, flags=TCP_ACK))
        sim.run_until_idle()
        assert seen_int == []  # connection broken: state was switch-local


# ---------------------------------------------------------------------------
# Firewall
# ---------------------------------------------------------------------------


class TestFirewall:
    @pytest.fixture
    def fw(self, sim):
        return deploy(sim, FirewallApp)

    def test_internal_initiated_allowed_both_ways(self, sim, fw):
        s11, e1 = fw.bed.servers[0], fw.bed.externals[0]
        seen_ext, seen_int = [], []
        e1.default_handler = seen_ext.append
        s11.default_handler = seen_int.append
        s11.send(Packet.tcp(s11.ip, e1.ip, 7000, 80, flags=TCP_SYN))
        sim.run_until_idle()
        e1.send(Packet.tcp(e1.ip, s11.ip, 80, 7000, flags=TCP_SYN | TCP_ACK))
        sim.run_until_idle()
        assert len(seen_ext) == 1 and len(seen_int) == 1

    def test_unsolicited_inbound_blocked(self, sim, fw):
        s11, e1 = fw.bed.servers[0], fw.bed.externals[0]
        seen_int = []
        s11.default_handler = seen_int.append
        e1.send(Packet.tcp(e1.ip, s11.ip, 80, 7000, flags=TCP_SYN))
        sim.run_until_idle()
        assert seen_int == []

    def test_pinhole_survives_failover(self, sim, fw):
        s11, e1 = fw.bed.servers[0], fw.bed.externals[0]
        seen_int = []
        s11.default_handler = seen_int.append
        s11.send(Packet.tcp(s11.ip, e1.ip, 7000, 80, flags=TCP_SYN))
        sim.run_until_idle()
        owner = max(fw.engines.values(), key=lambda e: e.stats["app_packets"])
        fw.bed.topology.fail_node(owner.switch)
        sim.run(until=sim.now + 400_000)
        e1.send(Packet.tcp(e1.ip, s11.ip, 80, 7000, flags=TCP_ACK))
        sim.run_until_idle()
        assert len(seen_int) == 1


# ---------------------------------------------------------------------------
# Load balancer
# ---------------------------------------------------------------------------


class TestLoadBalancer:
    def test_vip_traffic_mapped_to_dip(self, sim):
        # The app's provision makes the four internal servers the DIP
        # pool, held at the store (global state managed by stores, §3).
        dep = deploy(sim, LoadBalancerApp)
        e1 = dep.bed.externals[0]
        hits = {s.name: [] for s in dep.bed.servers}
        for server in dep.bed.servers:
            server.default_handler = (
                lambda pkt, name=server.name: hits[name].append(pkt)
            )
        for i in range(12):
            pkt = Packet.tcp(e1.ip, VIP, 10000 + i, 80, flags=TCP_SYN)
            sim.schedule(i * 400.0, e1.send, pkt)
        sim.run_until_idle()
        total = sum(len(v) for v in hits.values())
        assert total == 12
        # More than one DIP used across connections.
        assert sum(1 for v in hits.values() if v) >= 2

    def test_connection_affinity_per_flow(self, sim):
        dep = deploy(sim, LoadBalancerApp)
        e1 = dep.bed.externals[0]
        got = []
        for server in dep.bed.servers:
            server.default_handler = lambda pkt, ip=server.ip: got.append(ip)
        for i in range(6):
            pkt = Packet.tcp(e1.ip, VIP, 12345, 80,
                             flags=TCP_SYN if i == 0 else TCP_ACK)
            sim.schedule(i * 300.0, e1.send, pkt)
        sim.run_until_idle()
        assert len(got) == 6
        assert len(set(got)) == 1  # every packet of the flow hit one DIP


# ---------------------------------------------------------------------------
# EPC-SGW
# ---------------------------------------------------------------------------


class TestEpcSgw:
    @pytest.fixture
    def epc(self, sim):
        return deploy(sim, EpcSgwApp)

    def test_signaling_installs_session_then_data_flows(self, sim, epc):
        e1, s11 = epc.bed.externals[0], epc.bed.servers[0]
        seen = []
        s11.default_handler = seen.append
        e1.send(make_signaling_packet(e1.ip, s11.ip, user_id=5, new_teid=777))
        sim.run_until_idle()
        e1.send(make_data_packet(e1.ip, s11.ip, user_id=5, teid=777))
        sim.run_until_idle()
        assert len(seen) == 2

    def test_data_without_session_dropped(self, sim, epc):
        e1, s11 = epc.bed.externals[0], epc.bed.servers[0]
        seen = []
        s11.default_handler = seen.append
        e1.send(make_data_packet(e1.ip, s11.ip, user_id=9, teid=1))
        sim.run_until_idle()
        assert seen == []

    def test_session_survives_failover(self, sim, epc):
        """Table 1: without FT, "active session broken"; with RedPlane the
        TEID state migrates and data keeps flowing."""
        e1, s11 = epc.bed.externals[0], epc.bed.servers[0]
        seen = []
        s11.default_handler = seen.append
        e1.send(make_signaling_packet(e1.ip, s11.ip, user_id=5, new_teid=777))
        sim.run_until_idle()
        owner = max(epc.engines.values(), key=lambda e: e.stats["app_packets"])
        epc.bed.topology.fail_node(owner.switch)
        sim.run(until=sim.now + 400_000)
        e1.send(make_data_packet(e1.ip, s11.ip, user_id=5, teid=777))
        sim.run_until_idle()
        from repro.apps import is_signaling
        data = [p for p in seen if not is_signaling(p)]
        assert len(data) == 1

    def test_stale_teid_reencapsulated(self, sim, epc):
        e1, s11 = epc.bed.externals[0], epc.bed.servers[0]
        seen = []
        s11.default_handler = seen.append
        e1.send(make_signaling_packet(e1.ip, s11.ip, user_id=5, new_teid=700))
        sim.run_until_idle()
        e1.send(make_signaling_packet(e1.ip, s11.ip, user_id=5, new_teid=701))
        sim.run_until_idle()
        e1.send(make_data_packet(e1.ip, s11.ip, user_id=5, teid=700))
        sim.run_until_idle()
        import struct

        from repro.apps import is_signaling
        data = [p for p in seen if not is_signaling(p)]
        assert len(data) == 1
        _kind, _uid, teid = struct.unpack_from("!BII", data[0].payload, 0)
        assert teid == 701


# ---------------------------------------------------------------------------
# Heavy-hitter detection
# ---------------------------------------------------------------------------


class TestHeavyHitter:
    def test_heavy_flow_flagged(self, sim):
        dep = deploy(
            sim,
            lambda: HeavyHitterApp(vlans=[10], threshold=20),
        )
        stop_snapshots(dep)
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        for i in range(30):
            pkt = Packet.udp(e1.ip, s11.ip, 5555, 7777, vlan=10)
            sim.schedule(i * 10.0, e1.send, pkt)
        sim.run_until_idle()
        app = max(dep.apps.values(), key=lambda a: a.packets_sketched)
        assert app.heavy_hits > 0
        key = Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key()
        assert app.estimate(10, key) == 30

    def test_per_vlan_isolation(self, sim):
        dep = deploy(
            sim,
            lambda: HeavyHitterApp(vlans=[10, 20], threshold=1000),
        )
        stop_snapshots(dep)
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        for i in range(10):
            sim.schedule(i * 10.0, e1.send,
                         Packet.udp(e1.ip, s11.ip, 5555, 7777, vlan=10))
        sim.run_until_idle()
        app = max(dep.apps.values(), key=lambda a: a.packets_sketched)
        key = Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key()
        assert app.estimate(10, key) == 10
        assert app.estimate(20, key) == 0

    def test_snapshots_reach_store_and_restore(self, sim):
        dep = deploy(
            sim,
            lambda: HeavyHitterApp(vlans=[10], threshold=1000, width=16),
        )
        assert sorted(dep.replicators) == [agg.name for agg in dep.bed.aggs]
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        for i in range(25):
            sim.schedule(i * 10.0, e1.send,
                         Packet.udp(e1.ip, s11.ip, 5555, 7777, vlan=10))
        sim.run(until=5_000)
        for rep in dep.replicators.values():
            rep.stop()
        sim.run_until_idle()
        # The store holds a snapshot of every sketch row whose total equals
        # the packet count (count-min: each row sums all inserts).
        for row in range(3):
            rec = dep.stores[0].records[vlan_store_key(10, row)]
            assert sum(rec.snapshot_vals.values()) == 25


# ---------------------------------------------------------------------------
# KV store
# ---------------------------------------------------------------------------


class TestKvStore:
    @pytest.fixture
    def kv(self, sim):
        dep = deploy(sim, KvStoreApp)
        return dep

    def test_update_then_read(self, sim, kv):
        e1 = kv.bed.externals[0]
        replies = []
        e1.default_handler = lambda pkt: replies.append(parse_reply(pkt))
        e1.send(make_request(e1.ip, OP_UPDATE, key=3, value=99))
        sim.run_until_idle()
        e1.send(make_request(e1.ip, OP_READ, key=3))
        sim.run_until_idle()
        assert replies[0] == (OP_UPDATE, 3, 99)
        assert replies[1] == (OP_READ, 3, 99)

    def test_read_missing_key_returns_zero(self, sim, kv):
        e1 = kv.bed.externals[0]
        replies = []
        e1.default_handler = lambda pkt: replies.append(parse_reply(pkt))
        e1.send(make_request(e1.ip, OP_READ, key=42))
        sim.run_until_idle()
        assert replies[0] == (OP_READ, 42, 0)

    def test_values_survive_failover(self, sim, kv):
        """Table 1: "losing key-value pairs" is exactly what RedPlane fixes."""
        e1 = kv.bed.externals[0]
        replies = []
        e1.default_handler = lambda pkt: replies.append(parse_reply(pkt))
        e1.send(make_request(e1.ip, OP_UPDATE, key=7, value=1234))
        sim.run_until_idle()
        owner = max(kv.engines.values(), key=lambda e: e.stats["app_packets"])
        kv.bed.topology.fail_node(owner.switch)
        sim.run(until=sim.now + 400_000)
        e1.send(make_request(e1.ip, OP_READ, key=7))
        sim.run_until_idle()
        assert replies[-1] == (OP_READ, 7, 1234)
