"""Tests for the simplified TCP endpoints."""

import pytest

from repro.net import Simulator, build_testbed
from repro.net.topology import Topology
from repro.net.links import Link, LinkImpairment
from repro.workloads.tcp import TcpReceiver, TcpSender


def direct_pair(sim, loss=0.0, bandwidth_gbps=1.0):
    """Sender and receiver joined by a single link."""
    sender = TcpSender(sim, "snd", 0x0A000001, dst_ip=0x0A000002,
                       segment_bytes=16 * 1024)
    receiver = TcpReceiver(sim, "rcv", 0x0A000002)
    link = Link(sim, sender.nic, receiver.nic, latency_us=10.0,
                bandwidth_gbps=bandwidth_gbps)
    if loss:
        link.impair(LinkImpairment(drop_rate=loss))
    return sender, receiver


def test_bulk_transfer_progresses():
    sim = Simulator(seed=1)
    sender, receiver = direct_pair(sim)
    sender.start()
    sim.run(until=200_000)
    sender.stop()
    sim.run_until_idle()
    assert receiver.bytes_received > 1_000_000
    assert receiver.bytes_received == receiver.expected_seq * 16 * 1024


def test_cwnd_grows_from_slow_start():
    sim = Simulator(seed=1)
    sender, _receiver = direct_pair(sim)
    sender.start()
    sim.run(until=50_000)
    assert sender.cwnd > 4
    sender.stop()
    sim.run_until_idle()


def test_loss_triggers_retransmissions_but_delivers_in_order():
    sim = Simulator(seed=7)
    sender, receiver = direct_pair(sim, loss=0.02)
    sender.start()
    sim.run(until=2_000_000)
    sender.stop()
    sim.run_until_idle()
    assert sender.retransmits + sender.timeouts > 0
    assert receiver.bytes_received > 0
    assert receiver.bytes_received == receiver.expected_seq * 16 * 1024


def test_blackout_stalls_then_recovers():
    sim = Simulator(seed=2)
    sender, receiver = direct_pair(sim)
    link = sender.nic.link
    sender.start()
    sim.run(until=100_000)
    link.fail()
    sim.run(until=600_000)
    stalled_bytes = receiver.bytes_received
    link.recover()
    sim.run(until=1_600_000)
    sender.stop()
    sim.run_until_idle()
    assert sender.timeouts >= 1
    assert receiver.bytes_received > stalled_bytes


def test_goodput_series_reflects_outage():
    sim = Simulator(seed=3)
    sender, receiver = direct_pair(sim)
    link = sender.nic.link
    sender.start()
    sim.schedule(300_000, link.fail)
    sim.schedule(900_000, link.recover)
    sim.run(until=2_000_000)
    sender.stop()
    sim.run_until_idle()
    series = sender.goodput_series_gbps(2_000_000)
    # Healthy before the failure, ~zero during the blackout, healthy after.
    before = max(g for t, g in series if t < 0.3)
    during = max(g for t, g in series if 0.45 < t < 0.85)
    after = max(g for t, g in series if t > 1.5)
    assert before > 0.3
    assert during < 0.05
    assert after > 0.3
