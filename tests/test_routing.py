"""Unit tests for LPM routing and ECMP next-hop selection."""

import pytest

from repro.net import constants
from repro.net.links import Link, SinkNode
from repro.net.packet import FlowKey, Packet, ip_aton
from repro.net.routing import L3Switch, RoutingTable, Route, ecmp_hash
from repro.net.simulator import Simulator


def test_lpm_prefers_longest_prefix():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    sink_wide = SinkNode(sim, "wide")
    sink_narrow = SinkNode(sim, "narrow")
    wide = Link(sim, sw.new_port(), sink_wide.new_port())
    narrow = Link(sim, sw.new_port(), sink_narrow.new_port())
    sw.table.add(ip_aton("10.0.0.0"), 8, [sw.ports[0]])
    sw.table.add(ip_aton("10.0.1.0"), 24, [sw.ports[1]])

    route = sw.table.lookup(ip_aton("10.0.1.5"))
    assert route.mask_len == 24
    route = sw.table.lookup(ip_aton("10.9.9.9"))
    assert route.mask_len == 8


def test_default_route_matches_everything():
    table = RoutingTable()
    sim = Simulator()
    sink = SinkNode(sim, "s")
    port = sink.new_port()
    table.add(0, 0, [port])
    assert table.lookup(ip_aton("203.0.113.9")).ports == (port,)


def test_route_requires_ports():
    table = RoutingTable()
    with pytest.raises(ValueError):
        table.add(0, 0, [])


def test_ecmp_hash_symmetric_in_ports():
    forward = FlowKey(1, 2, 6, 1000, 80)
    reverse = FlowKey(2, 1, 6, 80, 1000)
    assert ecmp_hash(forward) == ecmp_hash(reverse)


def test_ecmp_hash_ignores_rewritten_addresses():
    # NAT rewrites IPs asymmetrically; the hash must not change.
    pre = FlowKey(ip_aton("10.0.1.11"), ip_aton("172.16.0.11"), 6, 7000, 80)
    post = FlowKey(ip_aton("192.0.2.1"), ip_aton("172.16.0.11"), 6, 7000, 80)
    assert ecmp_hash(pre) == ecmp_hash(post)


def test_ecmp_spreads_flows():
    keys = [FlowKey(1, 2, 17, 10000 + i, 80) for i in range(512)]
    buckets = [ecmp_hash(k) % 2 for k in keys]
    ones = sum(buckets)
    assert 150 < ones < 362  # roughly balanced across two next hops


def _drops(sim, reason):
    return sim.metrics.value("route.drops", switch="sw", reason=reason)


def test_forwarding_decrements_ttl_and_drops_at_zero():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    sink = SinkNode(sim, "sink")
    Link(sim, sw.new_port(), sink.new_port())
    sw.table.add(0, 0, [sw.ports[0]])

    pkt = Packet.udp(1, 2, 3, 4)
    pkt.ip.ttl = 2
    sw.forward(pkt)
    sim.run_until_idle()
    assert len(sink.received) == 1
    assert sink.received[0].ip.ttl == 1

    expired = Packet.udp(1, 2, 3, 4)
    expired.ip.ttl = 1
    sw.forward(expired)
    sim.run_until_idle()
    assert len(sink.received) == 1
    assert _drops(sim, "ttl") == 1


def test_forward_to_an_unlinked_port_raises_when_the_event_fires():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    sw.table.add(0, 0, [sw.new_port()])
    sim.schedule(5.0, sw.forward, Packet.udp(1, 2, 3, 4))
    sim.run(until=5.0)  # ``forward`` itself returns
    assert sw.forwarded == 1 and sim.pending_events == 1
    with pytest.raises(RuntimeError,
                       match=r"^<Port sw\[0\]> has no link attached$"):
        sim.run_until_idle()
    assert sim.now == 5.0 + constants.SWITCH_PIPELINE_US


def test_no_route_drops():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    pkt = Packet.udp(ip_aton("9.9.9.9"), ip_aton("8.8.8.8"), 1, 2)
    sw.forward(pkt)
    sim.run_until_idle()
    assert _drops(sim, "no_route") == 1


def test_belief_excludes_down_next_hops():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    sink_a = SinkNode(sim, "a")
    sink_b = SinkNode(sim, "b")
    Link(sim, sw.new_port(), sink_a.new_port())
    Link(sim, sw.new_port(), sink_b.new_port())
    sw.table.add(0, 0, [sw.ports[0], sw.ports[1]])

    sw.set_port_belief(sw.ports[0], False)
    for i in range(20):
        sw.forward(Packet.udp(1, 2, 100 + i, 4))
    sim.run_until_idle()
    assert len(sink_a.received) == 0
    assert len(sink_b.received) == 20

    sw.set_port_belief(sw.ports[0], True)
    sw.set_port_belief(sw.ports[1], False)
    for i in range(20):
        sw.forward(Packet.udp(1, 2, 100 + i, 4))
    sim.run_until_idle()
    assert len(sink_a.received) == 20


def test_all_next_hops_down_counts_drop():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    sink = SinkNode(sim, "a")
    Link(sim, sw.new_port(), sink.new_port())
    sw.table.add(0, 0, [sw.ports[0]])
    sw.set_port_belief(sw.ports[0], False)
    sw.forward(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert _drops(sim, "no_next_hop") == 1


def test_select_port_is_deterministic_per_flow():
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    a, b = SinkNode(sim, "a"), SinkNode(sim, "b")
    Link(sim, sw.new_port(), a.new_port())
    Link(sim, sw.new_port(), b.new_port())
    sw.table.add(0, 0, [sw.ports[0], sw.ports[1]])
    pkt = Packet.udp(1, 2, 33, 44)
    first = sw.select_port(pkt)
    for _ in range(10):
        assert sw.select_port(pkt) is first


# -- the versioned route cache --------------------------------------------------


def _two_way_switch(sim):
    sw = L3Switch(sim, "sw")
    sinks = [SinkNode(sim, "a"), SinkNode(sim, "b")]
    for sink in sinks:
        Link(sim, sw.new_port(), sink.new_port())
    sw.table.add(0, 0, [sw.ports[0], sw.ports[1]])
    return sw, sinks


def _lookups(sw, monkeypatch):
    """Count LPM walks: a cached selection never reaches the table."""
    calls = []
    lookup = sw.table.lookup
    monkeypatch.setattr(sw.table, "lookup",
                        lambda dst: calls.append(dst) or lookup(dst))
    return calls


def test_route_cache_answers_repeat_selections(monkeypatch):
    sim = Simulator()
    sw, _sinks = _two_way_switch(sim)
    walks = _lookups(sw, monkeypatch)
    pkt = Packet.udp(1, 2, 33, 44)
    first = sw.select_port(pkt)
    for _ in range(5):
        assert sw.select_port(Packet.udp(9, 2, 33, 44)) is first
    assert len(walks) == 1
    # The key is the hashed identity, not the packet: other ports re-walk.
    sw.select_port(Packet.udp(1, 2, 34, 44))
    assert len(walks) == 2


def test_route_cache_rewalks_after_belief_flip(monkeypatch):
    sim = Simulator()
    sw, _sinks = _two_way_switch(sim)
    walks = _lookups(sw, monkeypatch)
    pkt = Packet.udp(1, 2, 33, 44)
    first = sw.select_port(pkt)
    other = sw.ports[1] if first is sw.ports[0] else sw.ports[0]
    sw.set_port_belief(first, False)
    assert sw.select_port(pkt) is other
    sw.set_port_belief(first, True)
    assert sw.select_port(pkt) is first
    assert len(walks) == 3


def test_route_cache_rewalks_after_table_add(monkeypatch):
    sim = Simulator()
    sw, _sinks = _two_way_switch(sim)
    walks = _lookups(sw, monkeypatch)
    pkt = Packet.udp(1, ip_aton("10.0.1.5"), 33, 44)
    sw.select_port(pkt)
    extra = SinkNode(sim, "c")
    Link(sim, sw.new_port(), extra.new_port())
    sw.table.add(ip_aton("10.0.1.0"), 24, [sw.ports[2]])
    assert sw.select_port(pkt) is sw.ports[2]
    assert len(walks) == 2


def test_re_adding_a_route_replaces_it(monkeypatch):
    """Changing a route's next hops is adding the route again: the new
    ports take effect (through the cache) and the table keeps one entry."""
    sim = Simulator()
    sw, _sinks = _two_way_switch(sim)
    walks = _lookups(sw, monkeypatch)
    dst = ip_aton("10.0.0.1")
    pkt = Packet.udp(1, dst, 33, 44)
    sw.table.add(dst, 32, [sw.ports[0]])
    assert sw.select_port(pkt) is sw.ports[0]
    version = sw.table.version
    sw.table.add(dst, 32, [sw.ports[1]])
    assert sw.table.version == version + 1
    assert sw.select_port(pkt) is sw.ports[1]
    assert len(walks) == 2
    assert [(r.prefix, r.mask_len) for r in sw.table.routes()] == [
        (dst, 32), (0, 0)]


def test_route_ports_cannot_be_edited_behind_the_cache():
    sim = Simulator()
    sw, _sinks = _two_way_switch(sim)
    route = sw.table.lookup(0)
    assert isinstance(route.ports, tuple)


def test_route_cache_never_holds_a_drop():
    """No-route and no-next-hop outcomes re-walk the table for every
    packet, so their counters fire per packet."""
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    sink = SinkNode(sim, "a")
    Link(sim, sw.new_port(), sink.new_port())
    for _ in range(3):
        sw.forward(Packet.udp(1, 2, 3, 4))
    assert _drops(sim, "no_route") == 3

    sw.table.add(0, 0, [sw.ports[0]])
    sw.set_port_belief(sw.ports[0], False)
    for _ in range(3):
        sw.forward(Packet.udp(1, 2, 3, 4))
    assert _drops(sim, "no_next_hop") == 3

    # And the drops left nothing behind: the flow forwards once it can.
    sw.set_port_belief(sw.ports[0], True)
    sw.forward(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert len(sink.received) == 1


# -- the cache as ``forward`` reads it ---------------------------------------------
#
# ``forward`` reads a cache hit inline and calls ``select_port`` only on a
# miss, so these drive the hop itself and assert where the packet leaves.


def _leaves_by(sim, sw, sinks, pkt):
    """Hand ``pkt`` to ``sw`` as a hop does; the sink it reaches, or
    None when the switch drops it."""
    before = [len(sink.received) for sink in sinks]
    sw.receive(pkt, None)
    sim.run_until_idle()
    reached = [sink for sink, n in zip(sinks, before)
               if len(sink.received) > n]
    assert len(reached) <= 1
    return reached[0] if reached else None


def test_forward_follows_a_belief_flip_between_two_hops(monkeypatch):
    sim = Simulator()
    sw, sinks = _two_way_switch(sim)
    walks = _lookups(sw, monkeypatch)
    first = _leaves_by(sim, sw, sinks, Packet.udp(1, 2, 33, 44))
    assert _leaves_by(sim, sw, sinks, Packet.udp(1, 2, 33, 44)) is first
    assert len(walks) == 1  # the second hop was a cache hit
    other = sinks[1] if first is sinks[0] else sinks[0]
    sw.set_port_belief(sw.ports[sinks.index(first)], False)
    assert _leaves_by(sim, sw, sinks, Packet.udp(1, 2, 33, 44)) is other
    sw.set_port_belief(sw.ports[sinks.index(first)], True)
    assert _leaves_by(sim, sw, sinks, Packet.udp(1, 2, 33, 44)) is first
    assert len(walks) == 3


def test_forward_follows_a_table_add_between_two_hops():
    sim = Simulator()
    sw, sinks = _two_way_switch(sim)
    extra = SinkNode(sim, "c")
    Link(sim, sw.new_port(), extra.new_port())
    sinks.append(extra)
    dst = ip_aton("10.0.1.5")
    assert _leaves_by(sim, sw, sinks, Packet.udp(1, dst, 33, 44)) in sinks[:2]
    sw.table.add(ip_aton("10.0.1.0"), 24, [sw.ports[2]])
    assert _leaves_by(sim, sw, sinks, Packet.udp(1, dst, 33, 44)) is extra


def test_forward_never_serves_a_dropped_selection_from_the_cache():
    """A cached flow whose only next hop is believed down is dropped,
    once per packet, and forwards by that hop again once it is up."""
    sim = Simulator()
    sw = L3Switch(sim, "sw")
    sink = SinkNode(sim, "a")
    Link(sim, sw.new_port(), sink.new_port())
    sw.table.add(0, 0, [sw.ports[0]])
    assert _leaves_by(sim, sw, [sink], Packet.udp(1, 2, 3, 4)) is sink
    sw.set_port_belief(sw.ports[0], False)
    for dropped in (1, 2):
        assert _leaves_by(sim, sw, [sink], Packet.udp(1, 2, 3, 4)) is None
        assert _drops(sim, "no_next_hop") == dropped
    sw.set_port_belief(sw.ports[0], True)
    assert _leaves_by(sim, sw, [sink], Packet.udp(1, 2, 3, 4)) is sink
