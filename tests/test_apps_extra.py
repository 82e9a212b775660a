"""Tests for the remaining Table 1 applications: SYN defense,
super-spreader detection, and the in-network sequencer."""

import pytest

from repro import RedPlaneConfig, Simulator, deploy
from repro.apps import (
    SequencerApp,
    SuperSpreaderApp,
    SynDefenseApp,
    make_sequenced_request,
    parse_stamp,
    syn_cookie,
)
from repro.net.packet import Packet, TCP_ACK, TCP_SYN
from tests.conftest import stop_snapshots


# ---------------------------------------------------------------------------
# SYN-flood defense
# ---------------------------------------------------------------------------


class TestSynDefense:
    @pytest.fixture
    def dep(self, sim):
        return deploy(sim, SynDefenseApp)

    def _verify_source(self, sim, dep, e1, s11, sport=7000):
        """Run the cookie handshake for e1; returns the challenge packet."""
        challenges = []
        e1.default_handler = challenges.append
        e1.send(Packet.tcp(e1.ip, s11.ip, sport, 80, flags=TCP_SYN, seq=5))
        sim.run_until_idle()
        assert len(challenges) == 1
        challenge = challenges[0]
        assert challenge.l4.has(TCP_SYN) and challenge.l4.has(TCP_ACK)
        # Echo the cookie back.
        e1.send(Packet.tcp(e1.ip, s11.ip, sport, 80, flags=TCP_ACK,
                           ack=(challenge.l4.seq + 1) & 0xFFFFFFFF))
        sim.run_until_idle()
        return challenge

    def test_syn_answered_with_cookie_not_forwarded(self, sim, dep):
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        inside = []
        s11.default_handler = inside.append
        challenge = self._verify_source(sim, dep, e1, s11)
        assert challenge.l4.seq == syn_cookie(e1.ip, 7000)
        assert inside == []  # neither SYN nor bare cookie-ACK reach inside

    def test_verified_source_passes(self, sim, dep):
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        inside = []
        s11.default_handler = inside.append
        self._verify_source(sim, dep, e1, s11)
        # Re-opened connection from the verified source flows through.
        e1.send(Packet.tcp(e1.ip, s11.ip, 7000, 80, flags=TCP_SYN))
        sim.run_until_idle()
        assert len(inside) == 1

    def test_wrong_cookie_dropped(self, sim, dep):
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        inside = []
        s11.default_handler = inside.append
        e1.send(Packet.tcp(e1.ip, s11.ip, 7000, 80, flags=TCP_ACK, ack=12345))
        sim.run_until_idle()
        assert inside == []
        app = max(dep.apps.values(), key=lambda a: a.dropped)
        assert app.dropped == 1

    def test_verification_survives_failover(self, sim, dep):
        """Table 1: without FT the defense drops valid clients' packets."""
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        inside = []
        s11.default_handler = inside.append
        self._verify_source(sim, dep, e1, s11)
        owner = max(dep.engines.values(), key=lambda e: e.stats["app_packets"])
        dep.bed.topology.fail_node(owner.switch)
        sim.run(until=sim.now + 400_000)
        e1.send(Packet.tcp(e1.ip, s11.ip, 7000, 80, flags=TCP_SYN))
        sim.run_until_idle()
        # The verified bit migrated: the SYN passes instead of being
        # re-challenged.
        assert len(inside) == 1


# ---------------------------------------------------------------------------
# Super-spreader detection
# ---------------------------------------------------------------------------


class TestSuperSpreader:
    def make(self, sim, threshold=8):
        dep = deploy(sim, lambda: SuperSpreaderApp(threshold=threshold))
        stop_snapshots(dep)
        return dep

    def test_spread_counts_distinct_destinations(self, sim):
        dep = self.make(sim)
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        # 20 packets to only 3 distinct destinations.
        for i in range(20):
            dst = s11.ip + (i % 3)
            sim.schedule(i * 50.0, e1.send,
                         Packet.udp(e1.ip, dst, 6000, 7777))
        sim.run_until_idle()
        app = max(dep.apps.values(), key=lambda a: a.packets_processed)
        assert app.estimate(e1.ip) == 3

    def test_scanner_flagged(self, sim):
        dep = self.make(sim, threshold=8)
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        for i in range(16):
            sim.schedule(i * 50.0, e1.send,
                         Packet.udp(e1.ip, s11.ip + i, 6000, 7777))
        sim.run_until_idle()
        app = max(dep.apps.values(), key=lambda a: a.packets_processed)
        assert app.estimate(e1.ip) >= 8
        assert app.flagged > 0

    def test_snapshots_cover_all_structures(self, sim):
        dep = self.make(sim)
        app = dep.apps["agg1"]
        structures = app.snapshot_structures()
        assert len(structures) == app.hash_rows + 1
        sizes = {arr.size for arr in structures.values()}
        assert sizes == {512, 128}


# ---------------------------------------------------------------------------
# In-network sequencer
# ---------------------------------------------------------------------------


class TestSequencer:
    @pytest.fixture
    def dep(self, sim):
        dep = deploy(sim, SequencerApp)
        return dep

    def test_stamps_are_monotonic(self, sim, dep):
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        stamps = []
        s11.default_handler = lambda pkt: stamps.append(parse_stamp(pkt)[1])
        for i in range(10):
            sim.schedule(i * 200.0, e1.send,
                         make_sequenced_request(e1.ip, group=1, dst_ip=s11.ip))
        sim.run_until_idle()
        assert stamps == list(range(1, 11))

    def test_groups_are_independent(self, sim, dep):
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        stamps = []
        s11.default_handler = lambda pkt: stamps.append(parse_stamp(pkt))
        for group in (1, 2):
            e1.send(make_sequenced_request(e1.ip, group=group, dst_ip=s11.ip))
            sim.run_until_idle()
        assert sorted(stamps) == [(1, 1), (2, 1)]

    def test_sequence_never_regresses_across_failover(self, sim, dep):
        """Table 1's "incorrect sequencing" fixed: the counter migrates."""
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        stamps = []
        s11.default_handler = lambda pkt: stamps.append(parse_stamp(pkt)[1])
        for i in range(5):
            sim.schedule(i * 200.0, e1.send,
                         make_sequenced_request(e1.ip, group=1, dst_ip=s11.ip))
        sim.run_until_idle()
        owner = max(dep.engines.values(), key=lambda e: e.stats["app_packets"])
        dep.bed.topology.fail_node(owner.switch)
        sim.run(until=sim.now + 400_000)
        for i in range(5):
            sim.schedule(i * 200.0, e1.send,
                         make_sequenced_request(e1.ip, group=1, dst_ip=s11.ip))
        sim.run_until_idle()
        assert stamps == list(range(1, 11))  # no repeats, no regression
