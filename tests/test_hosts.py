"""Tests for the Host dispatch layer."""

import pytest

from repro.net import constants
from repro.net.hosts import Host
from repro.net.links import Link
from repro.net.packet import Packet
from repro.net.simulator import Simulator


def pair(sim):
    a = Host(sim, "a", 1)
    b = Host(sim, "b", 2)
    Link(sim, a.nic, b.nic)
    return a, b


def test_bound_handler_receives(sim=None):
    sim = Simulator()
    a, b = pair(sim)
    got = []
    b.bind(80, got.append)
    a.send(Packet.udp(1, 2, 999, 80, payload=b"x"))
    sim.run_until_idle()
    assert len(got) == 1
    assert b.rx_packets == 1 and a.tx_packets == 1


def test_default_handler_fallback():
    sim = Simulator()
    a, b = pair(sim)
    got = []
    b.default_handler = got.append
    a.send(Packet.udp(1, 2, 999, 12345))
    sim.run_until_idle()
    assert len(got) == 1


def test_unhandled_packets_collect_in_received():
    sim = Simulator()
    a, b = pair(sim)
    a.send(Packet.udp(1, 2, 999, 12345))
    sim.run_until_idle()
    assert len(b.received) == 1


def test_wrong_destination_dropped():
    sim = Simulator()
    a, b = pair(sim)
    a.send(Packet.udp(1, 99, 1, 2))
    sim.run_until_idle()
    assert b.rx_packets == 0
    assert sim.metrics.value("b.drops.wrong_dst") == 1


def test_extra_ips_accepted():
    sim = Simulator()
    a, b = pair(sim)
    b.extra_ips.add(99)
    got = []
    b.default_handler = got.append
    a.send(Packet.udp(1, 99, 1, 2))
    sim.run_until_idle()
    assert len(got) == 1


def test_double_bind_rejected():
    sim = Simulator()
    host = Host(sim, "h", 1)
    host.bind(80, lambda pkt: None)
    with pytest.raises(ValueError):
        host.bind(80, lambda pkt: None)
    host.unbind(80)
    host.bind(80, lambda pkt: None)  # rebindable after unbind


def test_send_adds_stack_delay():
    sim = Simulator()
    a, b = pair(sim)
    times = []
    b.default_handler = lambda pkt: times.append(sim.now)
    a.send(Packet.udp(1, 2, 1, 2))
    sim.run_until_idle()
    assert times[0] > 0.4  # host stack processing + link


def test_send_on_an_unlinked_nic_raises_when_the_event_fires():
    sim = Simulator()
    host = Host(sim, "h", 1)
    host.send(Packet.udp(1, 2, 1, 2), delay=3.0)  # the call returns
    assert host.tx_packets == 1 and sim.now == 0.0
    with pytest.raises(RuntimeError,
                       match=r"^<Port h\[0\]> has no link attached$"):
        sim.run_until_idle()
    assert sim.now == 3.0 + constants.HOST_PROC_US


def test_send_into_the_past_raises_at_the_call():
    sim = Simulator()
    a, b = pair(sim)
    with pytest.raises(ValueError, match=r"^cannot schedule in the past "
                                         r"\(delay=-0\.5\)$"):
        a.send(Packet.udp(1, 2, 1, 2), delay=-1.0)
    assert sim.pending_events == 0
    # Less than the stack delay back is still the future.
    a.send(Packet.udp(1, 2, 1, 2), delay=-0.25)
    sim.run_until_idle()
    assert b.rx_packets == 1


def test_root_context_send_is_a_flow_injection_under_a_recorder():
    """Shard mode filters root events that carry a packet; the event
    ``Host.send`` schedules must still show it one."""
    from repro.shard.recorder import ShardRecorder

    def run(shard_index):
        sim = Simulator(seed=3)
        recorder = ShardRecorder(shard_index, 2, ["ip.src", "ip.dst"])
        recorder.attach(sim, 3)
        a, b = pair(sim)
        for sport in range(16):
            a.send(Packet.udp(1, 2 + sport, sport, 80))
        sim.schedule(1.0, lambda: None)  # no packet: shared, always admitted
        sim.run_until_idle()
        return recorder, a

    shards = [run(0), run(1)]
    for recorder, a in shards:
        assert recorder.flow_ranks == set(range(16))
        assert recorder.flows_injected + recorder.flows_skipped == 16
        assert recorder.flows_injected == len(recorder.owned_flow_ranks) > 0
        assert a.tx_packets == 16
    owned = [recorder.owned_flow_ranks for recorder, _a in shards]
    assert owned[0] | owned[1] == set(range(16)) and not owned[0] & owned[1]
