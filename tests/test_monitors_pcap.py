"""Tests for runtime invariant monitors."""

import pytest

from repro import RedPlaneConfig, deploy
from repro.apps.counter import SyncCounterApp
from repro.model.monitors import InvariantMonitor
from repro.net.packet import Packet


# ---------------------------------------------------------------------------
# invariant monitors
# ---------------------------------------------------------------------------


class TestInvariantMonitor:
    def run_workload(self, sim, dep, monitor, n=10, fail=False):
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        got = []
        s11.default_handler = got.append
        monitor.start()
        for i in range(n):
            sim.schedule(i * 500.0, e1.send,
                         Packet.udp(e1.ip, s11.ip, 5555, 7777))
        if fail:
            owner_probe = n * 500.0 + 5_000.0
            sim.schedule(owner_probe, dep.bed.topology.fail_node,
                         dep.bed.aggs[0])
        sim.run(until=n * 500.0 + 600_000.0)
        monitor.stop()
        sim.run_until_idle()
        return got

    def test_clean_run_has_no_violations(self, sim, counter_deployment):
        dep = counter_deployment
        monitor = InvariantMonitor(sim, dep.stores,
                                   engines=list(dep.engines.values()),
                                   interval_us=500.0,
                                   track_monotonic_values=True)
        self.run_workload(sim, dep, monitor)
        assert monitor.ok(), monitor.report()
        assert monitor.samples > 100
        assert "OK" in monitor.report()

    def test_failover_run_keeps_invariants(self, sim):
        dep = deploy(sim, SyncCounterApp,
                     config=RedPlaneConfig(lease_period_us=100_000.0))
        monitor = InvariantMonitor(sim, dep.stores,
                                   engines=list(dep.engines.values()),
                                   interval_us=1_000.0,
                                   track_monotonic_values=True)
        self.run_workload(sim, dep, monitor, fail=True)
        assert monitor.ok(), monitor.report()

    def test_detects_seeded_sequence_regression(self, sim, counter_deployment):
        """Sanity: the monitor actually fires on a broken store."""
        dep = counter_deployment
        monitor = InvariantMonitor(sim, dep.stores, interval_us=100.0)
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        e1.send(Packet.udp(e1.ip, s11.ip, 5555, 7777))
        monitor.start()
        sim.run(until=2_000.0)
        # Corrupt a record: roll its sequence number backwards.
        key = Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key()
        rec = dep.stores[0].records[key]
        rec.last_seq = max(0, rec.last_seq)  # sample it once
        sim.run(until=3_000.0)
        rec.last_seq = -1  # regression
        sim.run(until=5_000.0)
        monitor.stop()
        sim.run_until_idle()
        assert not monitor.ok()
        assert any(v.invariant == "SequenceMonotonicity"
                   for v in monitor.violations)
        assert "violation" in monitor.report()

    def test_invalid_interval_rejected(self, sim, counter_deployment):
        with pytest.raises(ValueError):
            InvariantMonitor(sim, counter_deployment.stores, interval_us=0)
