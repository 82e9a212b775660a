"""Unit tests for links, ports, and nodes."""

import collections
import functools
import gc
import json
import math
import os
import pathlib
import random
import sys

import pytest

import repro
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


def test_drop_rate_drops_packets():
    sim = Simulator(seed=1)
    a, b, link = make_pair(sim)
    link.impair(LinkImpairment(drop_rate=0.5))
    for _ in range(400):
        a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert 100 < len(b.received) < 300
    assert sim.metrics.total("link.drops", reason="gray_loss") == \
        400 - len(b.received)


def test_zero_loss_delivers_everything():
    sim = Simulator()
    a, b, _link = make_pair(sim)
    for _ in range(50):
        a.ports[0].send(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert len(b.received) == 50


def test_jitter_reorders_back_to_back_packets():
    sim = Simulator(seed=3)
    a, b, link = make_pair(sim)
    link.impair(LinkImpairment(jitter_us=12.0))
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


def test_tx_counters():
    sim = Simulator()
    a, b, link = make_pair(sim)
    pkt = Packet.udp(1, 2, 3, 4, payload=b"\x00" * 100)
    a.ports[0].send(pkt)
    sim.run_until_idle()
    assert link.total_tx_bytes() == pkt.byte_size()


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
        LinkImpairment(duplicate_rate=float("nan"))
    with pytest.raises(ValueError):
        LinkImpairment(jitter_us=-1.0)
    with pytest.raises(ValueError):
        LinkImpairment(bandwidth_scale=0.0)
    assert LinkImpairment().describe() == "healthy"
    assert "blocked" in LinkImpairment(blocked=True).describe()


def test_impairment_rejects_nan_jitter():
    """A NaN jitter fails the comparison, as ``Link``'s latency does; it
    is not silently a zero jitter."""
    with pytest.raises(ValueError):
        LinkImpairment(jitter_us=float("nan"))


@pytest.mark.parametrize("link_kwargs", [
    {"latency_us": -1.0},
    {"latency_us": float("nan")},
    {"bandwidth_gbps": 0.0},
    {"bandwidth_gbps": -10.0},
    {"bandwidth_gbps": float("nan")},
], ids=lambda kw: "{}={}".format(*next(iter(kw.items()))))
def test_link_validates_parameters(link_kwargs):
    """A bad parameter fails at construction, before either port is
    attached, instead of as a silent 100 % drop or an error inside some
    later transmit event."""
    sim = Simulator()
    a, b = SinkNode(sim, "a").new_port(), SinkNode(sim, "b").new_port()
    with pytest.raises(ValueError, match=next(iter(link_kwargs))):
        Link(sim, a, b, **link_kwargs)
    assert a.link is None and b.link is None
    Link(sim, a, b)  # the ports are still free


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
# the trivial condition. A zeroed impairment takes a link out of that
# condition without changing anything observable (it draws no randomness),
# so "the same run with every link so impaired" is the general branch's
# answer to compare against.


def _force_general_branch(link):
    link.impair(LinkImpairment())


def _force_every_link(monkeypatch):
    init = Link.__init__

    def forced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _force_general_branch(self)

    monkeypatch.setattr(Link, "__init__", forced_init)


def _observables(sim):
    ring = [(r.ts, r.type, tuple(r.fields.items()))
            for r in sim.tracer.tail()]
    assert sim.tracer.records_dropped == 0  # the ring is the full trace
    return sim.events_executed, ring, sim.metrics.snapshot()


def _run_nat_quickstart():
    from repro.scenarios import SCENARIOS

    sim = Simulator(seed=7)
    SCENARIOS["nat_quickstart"].run(sim)
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
    _force_every_link(monkeypatch)
    general = scenario()
    assert default[0] == general[0]         # events executed
    assert default[1] == general[1]         # trace: ts, type, field order
    assert default[2:] == general[2:]       # metrics (and verdict)


#: What happens to the link while one packet is in flight on it, and how
#: many of the two packets (one sent before, one after) then die.
_TRANSITIONS = {
    "link_fail": (lambda link, b: link.fail(), 2),
    "node_fail": (lambda link, b: b.fail(), 2),
    # Impairments are judged at the sending end: the packet in flight lands.
    "impair": (lambda link, b: link.impair(LinkImpairment(blocked=True)), 1),
    "zero_impair": (lambda link, b: _force_general_branch(link), 0),
}


@pytest.mark.parametrize("transition", sorted(_TRANSITIONS))
def test_mid_flight_transition_matches_general_branch(transition):
    change, drops = _TRANSITIONS[transition]

    def run(general):
        sim = Simulator(seed=4)
        a, b, link = make_pair(sim, latency_us=5.0)
        if general:
            _force_general_branch(link)
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


@pytest.mark.parametrize("impairment, draws_per_packet", [
    (LinkImpairment(), 0),
    (LinkImpairment(drop_rate=0.5), 1),
], ids=["zeroed", "drop_rate"])
def test_non_trivial_direction_always_takes_the_general_branch(
        impairment, draws_per_packet):
    """An impairment keeps the compiled direction from being taken: the
    same seeded draws, drops and records as on a link forced down the
    general branch, packet for packet. A zeroed impairment takes the
    general branch, draws nothing and drops nothing."""
    packets = 40

    def run(general):
        sim = Simulator(seed=6)
        sim.rng = _CountingRandom(6)
        a, b, link = make_pair(sim, bandwidth_gbps=1.0)
        if general:
            _force_general_branch(link)
        link.impair(impairment, direction=a.ports[0])
        for _ in range(packets):
            a.ports[0].send(Packet.udp(1, 2, 3, 4))
            b.ports[0].send(Packet.udp(2, 1, 4, 3))
        sim.run_until_idle()
        return _observables(sim), sim.rng.draws, len(b.received), \
            len(a.received)

    default = run(general=False)
    assert default == run(general=True)
    _obs, draws, a_to_b, b_to_a = default
    # Only the impaired direction draws; the healthy reverse does not.
    assert draws == packets * draws_per_packet
    assert b_to_a == packets
    if draws_per_packet:
        assert 0 < a_to_b < packets
    else:
        assert a_to_b == packets


# -- frame budgets: Python frames entered per delivered packet ------------------
#
# The three budget tests count, with ``sys.setprofile``, the Python frames a
# run enters per delivered packet: a count, so it reads the same on any
# machine (the history of the counts is in CHANGES.md). They count per
# source file as well as in total. ``tests/frame_budgets.json`` holds one
# row per file for each shape, keyed by its path under ``src/``; frames
# anywhere else (the standard library, generated ``__init__``s, the test's
# own ``send``) pool into one ``other`` row, since those paths differ by
# machine. A row is a budget and may only fall: a failing test prints the
# measured table as JSON, and the change that lowers a row commits it.

_FRAME_BUDGETS = pathlib.Path(__file__).with_name("frame_budgets.json")
_SRC = os.path.dirname(os.path.dirname(repro.__file__)) + os.sep


def _frame_counter():
    """A ``{co_filename: frames}`` dict and the profile hook filling it."""
    calls = collections.defaultdict(int)

    def prof(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_filename] += 1

    return calls, prof


def _run_profiled(run, prof):
    """``run()`` under ``sys.setprofile(prof)``, with the collector paused
    as the drain pauses it, so that a ``gc.callbacks`` hook left by
    another test (hypothesis leaves one) is not counted."""
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(prof)
    try:
        run()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()


def _frame_rows(calls):
    rows = collections.Counter()
    for filename, n in calls.items():
        if filename.startswith(_SRC):
            rows[filename[len(_SRC):].replace(os.sep, "/")] += n
        else:
            rows["other"] += n
    return rows


def _assert_frame_budgets(shape, calls, packets):
    """Every row of ``shape`` within its budget (hundredths of a frame
    per packet, compared exactly in integers)."""
    rows = _frame_rows(calls)
    budget = json.loads(_FRAME_BUDGETS.read_text())[shape]
    over = sorted(row for row, n in rows.items()
                  if 100 * n > round(100 * budget.get(row, 0)) * packets)
    measured = {row: math.ceil(100 * n / packets) / 100
                for row, n in sorted(rows.items())}
    assert not over, (
        f"frames per packet over budget in {over} "
        f"({sum(rows.values()) / packets:.2f} in all); measured:\n"
        + json.dumps({shape: measured}, indent=2))


def test_nat_hop_call_budget():
    """Python frames entered per delivered packet on a steady NAT run. It
    makes 180 960 calls for its 2 500 packets (72.4 each); the budget is
    73 per packet, so a change that adds a frame per packet on the hop
    path fails here, and each file keeps its row of
    ``frame_budgets.json``. Scheduling the 2 500 injections enters one
    frame each, ``schedule_at`` itself.
    """
    from repro import deploy
    from repro.apps.nat import NatApp

    flows, per_flow = 50, 50
    sim = Simulator(seed=0)
    dep = deploy(sim, NatApp)
    sender, external = dep.bed.servers[0], dep.bed.externals[0]

    def send(sport):
        sender.send(Packet.udp(sender.ip, external.ip, sport, 7777))

    calls, prof = _frame_counter()
    # Paused as in ``_run_profiled``, with no frame of its own around it.
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(prof)
    try:
        for i in range(flows * per_flow):
            sim.schedule_at(i * 2.0, send, 5000 + i % flows)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    assert sum(calls.values()) == flows * per_flow
    calls.clear()
    _run_profiled(sim.run_until_idle, prof)
    assert external.rx_packets == flows * per_flow
    _assert_frame_budgets("nat_hop", calls, flows * per_flow)
    assert sum(calls.values()) <= 73 * flows * per_flow


def test_write_path_call_budget():
    """Python frames entered per delivered packet on the write path: one
    Sync-Counter flow, every packet mirrored, chain-replicated across
    three replicas and released on its ack. It makes 205 055 calls for
    its 700 packets (292.9 each); the budget is 293 per packet, so a
    change that adds a frame per packet anywhere on the write path fails
    here, and each file keeps its row of ``frame_budgets.json``.
    """
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
    calls, prof = _frame_counter()
    _run_profiled(sim.run_until_idle, prof)
    assert receiver.rx_packets == packets
    _assert_frame_budgets("write_path", calls, packets)
    assert sum(calls.values()) <= 293 * packets


def test_write_path_objects_equal_what_their_constructors_build(
        monkeypatch):
    """``SwitchASIC.process`` builds its ``PipelineContext`` and the write
    path builds its ``RedPlaneMessage``s (the write request, its mirrored
    header and the store's ack) field by field, not through the generated
    ``__init__``. Each must hold every field, of the type the dataclass
    or the codec would give it."""
    import dataclasses

    from repro import deploy
    from repro.apps.counter import SyncCounterApp
    from repro.core.engine import RedPlaneEngine
    from repro.core.protocol import MessageType, RedPlaneMessage
    from repro.statestore.server import StateStoreNode
    from repro.switch.mirror import MirrorSession
    from repro.switch.pipeline import Pipeline, PipelineContext

    contexts, messages = [], []

    def spy(cls, name, pick):
        real = getattr(cls, name)

        def wrapped(*args, **kwargs):
            pick(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapped)

    def at_entry(args):
        ctx = args[1]
        contexts.append(ctx == PipelineContext(pkt=ctx.pkt, now=ctx.now))

    spy(Pipeline, "run", at_entry)
    spy(RedPlaneEngine, "_send_request", lambda a: messages.append(a[2]))
    spy(MirrorSession, "mirror", lambda a: messages.append(a[2].msg))
    spy(StateStoreNode, "_reply", lambda a: messages.append(a[1]))
    sim = Simulator(seed=0)
    dep = deploy(sim, SyncCounterApp)
    sender, receiver = dep.bed.externals[0], dep.bed.servers[0]
    for i in range(20):
        sim.schedule_at(i * 10.0, lambda: sender.send(
            Packet.udp(sender.ip, receiver.ip, 5555, 7777)))
    sim.run_until_idle()
    assert receiver.rx_packets == 20
    assert len(contexts) > 20 and all(contexts)
    kinds = {msg.msg_type for msg in messages}
    assert {MessageType.REPL_WRITE_REQ, MessageType.REPL_WRITE_ACK} <= kinds
    for msg in messages:
        decoded = RedPlaneMessage.unpack(msg.pack())
        assert [(getattr(msg, f.name), type(getattr(msg, f.name)))
                for f in dataclasses.fields(RedPlaneMessage)] == [
            (getattr(decoded, f.name), type(getattr(decoded, f.name)))
            for f in dataclasses.fields(RedPlaneMessage)]


def test_failover_call_budget(monkeypatch):
    """Python frames entered per delivered packet on the write path
    through one failover: the registry quickstart's story on
    Sync-Counter with 50 packets in each burst. The owner fails, the
    second burst's lease request waits at the store and resends on the
    retransmission ladder until the migration grant releases it. It
    makes 46 544 calls for its 100 packets (465.4 each); the budget is
    466 per packet, and each file keeps its row of
    ``frame_budgets.json``. Only the drains are profiled: scheduling a
    burst between two drains is not.
    """
    from repro import scenarios

    deployed = []

    def deploy(*args, **kwargs):
        deployed.append(real_deploy(*args, **kwargs))
        return deployed[-1]

    real_deploy = scenarios._deploy
    monkeypatch.setattr(scenarios, "_deploy", deploy)
    sim = Simulator(seed=7)
    calls, prof = _frame_counter()

    def pace(until):
        _run_profiled(functools.partial(sim.run, until=until), prof)

    packets = scenarios.run_failover(sim, pace, packets=50,
                                     app="sync_counter")["packets"]
    assert deployed[0].bed.servers[0].rx_packets == packets == 100
    _assert_frame_budgets("failover", calls, packets)
    assert sum(calls.values()) <= 466 * packets
