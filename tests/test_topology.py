"""Tests for the Appendix-D testbed topology and failure injection."""

import itertools

import pytest

from repro.apps import BUILTIN_APPS
from repro.net import Simulator, build_testbed, Packet
from repro.net.topology import Topology
from repro.net.links import LinkImpairment, SinkNode
from tests.conftest import SERVICE_ROUTES


def test_testbed_inventory():
    sim = Simulator()
    bed = build_testbed(sim)
    assert len(bed.cores) == 2
    assert len(bed.aggs) == 2
    assert len(bed.tors) == 2
    assert len(bed.servers) == 4
    assert len(bed.externals) == 4
    assert len(bed.store_servers) == 3


def test_all_host_pairs_reachable():
    sim = Simulator(seed=1)
    bed = build_testbed(sim)
    hosts = bed.servers + bed.externals + bed.store_servers
    received = {}
    for host in hosts:
        received[host.name] = []
        host.default_handler = (
            lambda pkt, name=host.name: received[name].append(pkt)
        )
    for src, dst in itertools.permutations(hosts, 2):
        src.send(Packet.udp(src.ip, dst.ip, 1111, 2222))
    sim.run_until_idle()
    for host in hosts:
        assert len(received[host.name]) == len(hosts) - 1, host.name


def test_agg_failure_reroutes_after_detection():
    sim = Simulator(seed=2)
    bed = build_testbed(sim)
    src, dst = bed.externals[0], bed.servers[0]
    got = []
    dst.default_handler = got.append

    bed.topology.fail_node(bed.aggs[0])
    # Before detection, some flows black-hole; after detection all arrive.
    sim.run(until=sim.now + 400_000)
    for i in range(30):
        src.send(Packet.udp(src.ip, dst.ip, 3000 + i, 2222))
    sim.run_until_idle()
    assert len(got) == 30


def test_agg_failure_drops_traffic_before_detection():
    sim = Simulator(seed=3)
    bed = build_testbed(sim)
    src, dst = bed.externals[0], bed.servers[0]
    got = []
    dst.default_handler = got.append
    bed.topology.fail_node(bed.aggs[0], detect_delay_us=1_000_000)
    # Immediately after the failure, flows hashed to agg1 are lost.
    for i in range(40):
        src.send(Packet.udp(src.ip, dst.ip, 3000 + i, 2222))
    sim.run(until=500_000)
    assert 0 < len(got) < 40


def test_recovery_restores_paths():
    sim = Simulator(seed=4)
    bed = build_testbed(sim)
    src, dst = bed.externals[0], bed.servers[0]
    got = []
    dst.default_handler = got.append
    bed.topology.fail_node(bed.aggs[0])
    sim.run(until=sim.now + 400_000)
    bed.topology.recover_node(bed.aggs[0])
    sim.run(until=sim.now + 400_000)
    for i in range(30):
        src.send(Packet.udp(src.ip, dst.ip, 4000 + i, 2222))
    sim.run_until_idle()
    assert len(got) == 30


def test_link_failure_and_recovery():
    sim = Simulator(seed=5)
    bed = build_testbed(sim)
    link = bed.topology.links[0]  # core1 <-> agg1
    bed.topology.fail_link(link)
    assert not link.up
    bed.topology.recover_link(link)
    assert link.up


def test_duplicate_node_names_rejected():
    sim = Simulator()
    topo = Topology(sim)
    topo.add_node(SinkNode(sim, "x"))
    with pytest.raises(ValueError):
        topo.add_node(SinkNode(sim, "x"))


def test_impair_fabric_impairs_both_directions_of_the_nine_switch_links():
    sim = Simulator()
    bed = build_testbed(sim)
    impairment = LinkImpairment(drop_rate=0.1)
    bed.impair_fabric(impairment)
    switches = set(bed.cores + bed.aggs + bed.tors)
    assert len(bed.fabric) == 9
    for link in bed.topology.links:
        between_switches = {link.a.node, link.b.node} <= switches
        assert (link in bed.fabric) == between_switches
        expected = impairment if between_switches else None
        assert link.impairment_of(link.a) is expected
        assert link.impairment_of(link.b) is expected


def test_host_by_ip():
    sim = Simulator()
    bed = build_testbed(sim)
    host = bed.servers[0]
    assert bed.host_by_ip(host.ip) is host
    with pytest.raises(KeyError):
        bed.host_by_ip(0xDEADBEEF)


def test_store_factory_used():
    from repro.net.hosts import Host

    class MyStore(Host):
        pass

    sim = Simulator()
    bed = build_testbed(sim, store_factory=lambda s, n, ip: MyStore(s, n, ip))
    assert all(isinstance(st, MyStore) for st in bed.store_servers)


# -- service-address routes (Testbed.anycast_to_aggs) -------------------------


def _route_rows(switch):
    return [
        (r.prefix, r.mask_len,
         tuple(p.link.other_end(p).node.name for p in r.ports))
        for r in switch.table.routes()
    ]


@pytest.mark.parametrize("name", sorted(BUILTIN_APPS))
def test_provision_adds_exactly_the_anycast_routes(name):
    """A service app's ``provision`` adds one /32 over both agg-facing
    ports on every core (and, for the services rack clients address,
    every ToR) and touches nothing else; every other app adds nothing."""
    bed = build_testbed(Simulator())
    switches = bed.cores + bed.aggs + bed.tors
    before = {sw.name: _route_rows(sw) for sw in switches}
    BUILTIN_APPS[name]().provision(bed, [])
    if name not in SERVICE_ROUTES:
        assert {sw.name: _route_rows(sw) for sw in switches} == before
        return
    ip, from_racks = SERVICE_ROUTES[name]
    anycast = (ip, 32, ("agg1", "agg2"))
    expected_on = bed.cores + (bed.tors if from_racks else [])
    for sw in switches:
        added = [r for r in _route_rows(sw) if r not in before[sw.name]]
        assert added == ([anycast] if sw in expected_on else []), sw.name
        assert [r for r in _route_rows(sw) if r != anycast] == before[sw.name]
