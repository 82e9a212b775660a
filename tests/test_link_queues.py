"""Tests for link transmit-queue (serialization) delay."""

import pytest

from repro.net.links import Link, SinkNode
from repro.net.packet import Packet
from repro.net.simulator import Simulator


def pair(sim, **kw):
    a, b = SinkNode(sim, "a"), SinkNode(sim, "b")
    link = Link(sim, a.new_port(), b.new_port(), **kw)
    return a, b, link


def test_burst_queues_and_serializes():
    sim = Simulator()
    a, b, link = pair(sim, latency_us=1.0, bandwidth_gbps=1.0)
    pkt_bytes = 1000 + 42
    for _ in range(5):
        a.ports[0].send(Packet.udp(1, 2, 3, 4, payload=b"\x00" * 1000))
    sim.run_until_idle()
    assert len(b.received) == 5
    # Deliveries are spaced by one serialization time (~8.3 us at 1 Gbps).
    gaps = [t2 - t1 for t1, t2 in zip(b.receive_times, b.receive_times[1:])]
    expected = pkt_bytes * 8 / 1000.0
    for gap in gaps:
        assert gap == pytest.approx(expected, rel=0.01)
