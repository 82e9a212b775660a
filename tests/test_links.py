"""Unit tests for links, ports, and nodes."""

import random

import pytest

from repro.net import constants
from repro.net.links import Link, LinkImpairment, Node, SinkNode
from repro.net.packet import Packet
from repro.net.simulator import Simulator


def make_pair(sim, **link_kwargs):
    a = SinkNode(sim, "a")
    b = SinkNode(sim, "b")
    link = Link(sim, a.new_port(), b.new_port(), **link_kwargs)
    return a, b, link


def test_delivery_and_latency():
    sim = Simulator()
    a, b, link = make_pair(sim, latency_us=5.0, bandwidth_gbps=100.0)
    pkt = Packet.udp(1, 2, 3, 4, payload=b"\x00" * 58)  # 100-byte frame
    a.ports[0].send(pkt)
    sim.run_until_idle()
    assert b.received == [pkt]
    # 5 us propagation + 100 B * 8 / 100 Gbps = 0.008 us serialization.
    assert b.receive_times[0] == pytest.approx(5.008)


def test_serialization_scales_with_size_and_bandwidth():
    sim = Simulator()
    _a, _b, link = make_pair(sim, bandwidth_gbps=10.0)
    small = Packet.udp(1, 2, 3, 4)
    big = Packet.udp(1, 2, 3, 4, payload=b"\x00" * 1400)
    assert link.serialization_delay_us(big) > link.serialization_delay_us(small)
    assert link.serialization_delay_us(big) == pytest.approx(
        big.byte_size() * 8 / 10_000
    )


def test_loss_rate_drops_packets():
    sim = Simulator(seed=1)
    a, b, link = make_pair(sim, loss_rate=0.5)
    for _ in range(400):
        a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert 100 < len(b.received) < 300
    assert sim.metrics.total("link.drops", reason="loss") == \
        400 - len(b.received)


def test_zero_loss_delivers_everything():
    sim = Simulator()
    a, b, _link = make_pair(sim)
    for _ in range(50):
        a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert len(b.received) == 50


def test_reordering_delays_some_packets():
    sim = Simulator(seed=3)
    a, b, _link = make_pair(sim, reorder_rate=0.3)
    for i in range(200):
        pkt = Packet.udp(1, 2, 3, 4)
        pkt.meta["i"] = i
        a.ports[0].send(pkt)
    sim.run_until_idle()
    order = [pkt.meta["i"] for pkt in b.received]
    assert order != sorted(order)
    assert sorted(order) == list(range(200))


def test_down_link_drops():
    sim = Simulator()
    a, b, link = make_pair(sim)
    link.fail()
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert b.received == []
    link.recover()
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert len(b.received) == 1


def test_in_flight_packets_lost_when_link_fails():
    sim = Simulator()
    a, b, link = make_pair(sim, latency_us=10.0)
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.schedule(1.0, link.fail)
    sim.run_until_idle()
    assert b.received == []


def test_failed_node_drops_deliveries():
    sim = Simulator()
    a, b, _link = make_pair(sim)
    b.fail()
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert b.received == []
    assert sim.metrics.total("link.drops", reason="node_failed") == 1


def test_tx_counters_and_taps():
    sim = Simulator()
    a, b, link = make_pair(sim)
    tapped = []
    link.taps.append(lambda pkt, port: tapped.append(pkt.byte_size()))
    pkt = Packet.udp(1, 2, 3, 4, payload=b"\x00" * 100)
    a.ports[0].send(pkt)
    sim.run_until_idle()
    assert link.total_tx_bytes() == pkt.byte_size()
    assert tapped == [pkt.byte_size()]


def test_blocked_direction_is_asymmetric():
    sim = Simulator()
    a, b, link = make_pair(sim)
    link.impair(LinkImpairment(blocked=True), direction=a.ports[0])
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    b.ports[0].send(Packet.udp(2, 1, 4, 3))
    sim.run_until_idle()
    assert b.received == []          # a -> b blackholed
    assert len(a.received) == 1      # b -> a untouched
    assert sim.metrics.total("link.drops", reason="partition") == 1
    assert link.impairment_of(a.ports[0]).blocked
    assert link.impairment_of(b.ports[0]) is None


def test_corruption_drops_at_receiver_after_spending_bandwidth():
    sim = Simulator(seed=9)
    a, b, link = make_pair(sim)
    link.impair(LinkImpairment(corrupt_rate=0.5))
    for _ in range(400):
        a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert 100 < len(b.received) < 300
    assert sim.metrics.total("link.drops", reason="corrupt") == \
        400 - len(b.received)
    # Corrupted frames were serialized before dying: tx counts all 400.
    assert sim.metrics.total("link.tx_packets", link=link.name) == 400


def test_duplication_delivers_extra_copies():
    sim = Simulator(seed=4)
    a, b, link = make_pair(sim)
    link.impair(LinkImpairment(duplicate_rate=0.5))
    for _ in range(200):
        a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    duplicated = len(b.received) - 200
    assert 50 < duplicated < 150
    assert sim.metrics.total("link.duplicated") == duplicated


def test_jitter_adds_bounded_delay():
    sim = Simulator(seed=2)
    a, b, link = make_pair(sim, latency_us=5.0)
    link.impair(LinkImpairment(jitter_us=50.0))
    delays = []
    for _ in range(20):
        sent_at = sim.now
        a.ports[0].send(Packet.udp(1, 2, 3, 4))
        sim.run_until_idle()
        delays.append(b.receive_times[-1] - sent_at)
    base = 5.0  # propagation; serialization is negligible here
    assert all(base <= d <= base + 50.1 for d in delays)
    assert max(delays) - min(delays) > 1.0  # jitter actually varied


def test_degraded_bandwidth_slows_serialization():
    sim = Simulator()
    a, b, link = make_pair(sim, bandwidth_gbps=10.0, latency_us=0.0)
    pkt = Packet.udp(1, 2, 3, 4, payload=b"\x00" * 1400)
    a.ports[0].send(pkt.copy())
    sim.run_until_idle()
    healthy_time = b.receive_times[0]
    link.impair(LinkImpairment(bandwidth_scale=0.1))
    t0 = sim.now
    a.ports[0].send(pkt.copy())
    sim.run_until_idle()
    degraded_time = b.receive_times[1] - t0
    assert degraded_time == pytest.approx(healthy_time * 10.0)


def test_clear_impairments_restores_health():
    sim = Simulator()
    a, b, link = make_pair(sim)
    link.impair(LinkImpairment(blocked=True))
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert b.received == []
    link.clear_impairments()
    assert not link.impaired
    a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert len(b.received) == 1


def test_impairment_validates_parameters():
    with pytest.raises(ValueError):
        LinkImpairment(drop_rate=1.5)
    with pytest.raises(ValueError):
        LinkImpairment(corrupt_rate=-0.1)
    with pytest.raises(ValueError):
        LinkImpairment(jitter_us=-1.0)
    with pytest.raises(ValueError):
        LinkImpairment(bandwidth_scale=0.0)
    assert LinkImpairment().describe() == "healthy"
    assert "blocked" in LinkImpairment(blocked=True).describe()


def test_port_cannot_have_two_links():
    sim = Simulator()
    a = SinkNode(sim, "a")
    b = SinkNode(sim, "b")
    c = SinkNode(sim, "c")
    port = a.new_port()
    Link(sim, port, b.new_port())
    with pytest.raises(RuntimeError):
        Link(sim, port, c.new_port())


def test_unattached_port_send_raises():
    sim = Simulator()
    a = SinkNode(sim, "a")
    port = a.new_port()
    with pytest.raises(RuntimeError):
        port.send(Packet.udp(1, 2, 3, 4))


def test_base_node_receive_not_implemented():
    sim = Simulator()
    node = Node(sim, "n")
    with pytest.raises(NotImplementedError):
        node.receive(Packet.udp(1, 2, 3, 4), None)


# -- one hop path: the compiled direction vs the general branch -----------------
#
# ``Link.transmit`` skips the sending-end verdicts while a direction is in
# the trivial condition. A no-op tap takes a link out of that condition
# without changing anything observable, so "the same run with every link
# tapped" is the general branch's answer to compare against.


def _noop_tap(pkt, port):
    pass


def _tap_every_link(monkeypatch):
    init = Link.__init__

    def tapped_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.taps.append(_noop_tap)

    monkeypatch.setattr(Link, "__init__", tapped_init)


def _observables(sim):
    ring = [(r.ts, r.type, tuple(r.fields.items()))
            for r in sim.tracer.tail()]
    assert sim.tracer.records_dropped == 0  # the ring is the full trace
    return sim.events_executed, ring, sim.metrics.snapshot()


def _run_nat_quickstart():
    from repro.shard.scenarios import run_nat_quickstart

    sim = Simulator(seed=7)
    run_nat_quickstart(sim, lambda until: sim.run(until=until))
    return _observables(sim)


def _run_single_failover():
    from repro.chaos.campaigns import CAMPAIGNS
    from repro.chaos.runner import run_campaign_result, verdict_json

    sims = []

    def factory(seed):
        sims.append(Simulator(seed=seed))
        return sims[0]

    result = run_campaign_result(CAMPAIGNS["single_failover"], seed=42,
                                 sim_factory=factory)
    return _observables(sims[0]) + (verdict_json(result.report),)


@pytest.mark.parametrize("scenario",
                         [_run_nat_quickstart, _run_single_failover])
def test_general_branch_equals_default_run(monkeypatch, scenario):
    default = scenario()
    _tap_every_link(monkeypatch)
    tapped = scenario()
    assert default[0] == tapped[0]          # events executed
    assert default[1] == tapped[1]          # trace: ts, type, field order
    assert default[2:] == tapped[2:]        # metrics (and verdict)


#: What happens to the link while one packet is in flight on it, and how
#: many of the two packets (one sent before, one after) then die.
_TRANSITIONS = {
    "link_fail": (lambda link, b: link.fail(), 2),
    "node_fail": (lambda link, b: b.fail(), 2),
    # Impairments are judged at the sending end: the packet in flight lands.
    "impair": (lambda link, b: link.impair(LinkImpairment(blocked=True)), 1),
    "tap": (lambda link, b: link.taps.append(_noop_tap), 0),
}


@pytest.mark.parametrize("transition", sorted(_TRANSITIONS))
def test_mid_flight_transition_matches_general_branch(transition):
    change, drops = _TRANSITIONS[transition]

    def run(general):
        sim = Simulator(seed=4)
        a, b, link = make_pair(sim, latency_us=5.0)
        if general:
            link.taps.append(_noop_tap)
        a.ports[0].send(Packet.udp(1, 2, 3, 4))
        sim.schedule(1.0, change, link, b)
        sim.schedule(2.0, a.ports[0].send, Packet.udp(1, 2, 3, 4))
        sim.run_until_idle()
        return _observables(sim), len(b.received)

    default = run(general=False)
    assert default == run(general=True)
    assert default[1] == 2 - drops


class _CountingRandom(random.Random):
    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


@pytest.mark.parametrize("link_kwargs, impairment, draws_per_packet", [
    ({"loss_rate": 0.5}, None, 1),
    ({"reorder_rate": 1.0}, None, 2),
    ({"queue_limit_bytes": 200}, None, 0),
    ({}, LinkImpairment(drop_rate=0.5), 1),
])
def test_non_trivial_direction_always_takes_the_general_branch(
        link_kwargs, impairment, draws_per_packet):
    """Every condition the compiled direction skips the checks for keeps
    it from being taken: the same seeded draws, drops and records as on
    a tapped (general-branch) link, packet for packet."""
    packets = 40

    def run(general):
        sim = Simulator(seed=6)
        sim.rng = _CountingRandom(6)
        a, b, link = make_pair(sim, bandwidth_gbps=1.0, **link_kwargs)
        if impairment is not None:
            link.impair(impairment, direction=a.ports[0])
        if general:
            link.taps.append(_noop_tap)
        for _ in range(packets):
            a.ports[0].send(Packet.udp(1, 2, 3, 4))
            b.ports[0].send(Packet.udp(2, 1, 4, 3))
        sim.run_until_idle()
        return _observables(sim), sim.rng.draws, len(b.received), \
            len(a.received)

    default = run(general=False)
    assert default == run(general=True)
    _obs, draws, a_to_b, b_to_a = default
    if impairment is not None:
        # Only the impaired direction draws; the healthy reverse does not.
        assert draws == packets * draws_per_packet
        assert 0 < a_to_b < packets and b_to_a == packets
    else:
        assert draws == 2 * packets * draws_per_packet
        if "queue_limit_bytes" in link_kwargs:
            assert 0 < a_to_b < packets  # the burst overran the queue


def test_nat_hop_call_budget():
    """Python frames entered per delivered packet on a steady NAT run —
    a count, so it reads the same on any machine. Before ``forward`` and
    ``Host.send`` scheduled ``Link.transmit`` themselves (one
    ``schedule_at``, no ``Port.send`` event) and the tracer's clock became
    a C call, this run made 427 000 calls for its 2 500 packets (170.8
    each); it makes 373 832 (149.5). The budget is 0.90 of the former.
    """
    import sys

    from repro import deploy
    from repro.apps.nat import NatApp, install_nat_routes

    flows, per_flow = 50, 50
    sim = Simulator(seed=0)
    dep = deploy(sim, NatApp)
    install_nat_routes(dep.bed)
    sender, external = dep.bed.servers[0], dep.bed.externals[0]

    def send(sport):
        sender.send(Packet.udp(sender.ip, external.ip, sport, 7777))

    for i in range(flows * per_flow):
        sim.schedule_at(i * 2.0, send, 5000 + i % flows)
    calls = [0]

    def prof(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(prof)
    try:
        sim.run_until_idle()
    finally:
        sys.setprofile(None)
    assert external.rx_packets == flows * per_flow
    assert calls[0] <= 0.90 * 427_000


def test_write_path_call_budget():
    """Python frames entered per delivered packet on the write path: one
    Sync-Counter flow, every packet mirrored, chain-replicated across
    three replicas and released on its ack. Before receivers took the
    sender's object instead of parsing the bytes it had just encoded
    (six decodes per packet), this run made 521 667 calls for its 700
    packets (745.2 each); it makes 501 319 (716.2). The budget is 735.
    """
    import sys

    from repro import deploy
    from repro.apps.counter import SyncCounterApp

    packets = 700
    sim = Simulator(seed=0)
    dep = deploy(sim, SyncCounterApp)
    sender, receiver = dep.bed.externals[0], dep.bed.servers[0]

    def send():
        sender.send(Packet.udp(sender.ip, receiver.ip, 5555, 7777))

    for i in range(packets):
        sim.schedule_at(i * 10.0, send)
    calls = [0]

    def prof(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(prof)
    try:
        sim.run_until_idle()
    finally:
        sys.setprofile(None)
    assert receiver.rx_packets == packets
    assert calls[0] <= 735 * packets
