"""Tests for the Host dispatch layer."""

import pytest

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
