"""Tests for flow-table reclamation."""

from repro import RedPlaneConfig, deploy
from repro.apps.counter import SyncCounterApp
from repro.net.packet import Packet


# ---------------------------------------------------------------------------
# flow-table reclamation
# ---------------------------------------------------------------------------


class TestReclamation:
    def make(self, sim, max_flows=4, lease_us=10_000.0):
        return deploy(sim, SyncCounterApp,
                      config=RedPlaneConfig(max_flows=max_flows,
                                            lease_period_us=lease_us))

    def run_flows(self, sim, dep, sports):
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        for i, sport in enumerate(sports):
            sim.schedule(i * 100.0, e1.send,
                         Packet.udp(e1.ip, s11.ip, sport, 7777))
        sim.run_until_idle()

    def active_engine(self, dep):
        return max(dep.engines.values(), key=lambda e: len(e._flow_idx))

    def test_idle_entries_reclaimed(self, sim):
        dep = self.make(sim)
        self.run_flows(sim, dep, [6001, 6002])
        eng = self.active_engine(dep)
        before = len(eng._flow_idx)
        assert before >= 1
        # Nothing reclaimable while leases are fresh.
        assert eng.reclaim_idle_flows() == 0
        # Two lease periods later everything is idle.
        sim.run(until=sim.now + 30_000.0)
        assert eng.reclaim_idle_flows() == before
        assert eng._flow_idx == {}

    def test_reclaimed_indices_are_reused_cleanly(self, sim):
        dep = self.make(sim, max_flows=2)
        self.run_flows(sim, dep, [6001, 6002])
        eng = self.active_engine(dep)
        per_engine = len(eng._flow_idx)
        sim.run(until=sim.now + 30_000.0)
        assert eng.reclaim_idle_flows() == per_engine

        # New flows fit into the freed slots and start from scratch.
        self.run_flows(sim, dep, [7001, 7002])
        key = Packet.udp(dep.bed.externals[0].ip, dep.bed.servers[0].ip,
                         7001, 7777).flow_key()
        for engine in dep.engines.values():
            state = engine.flow_state(key)
            if state is not None:
                assert state == [1]  # fresh count, no leftover state

    def test_table_exhaustion_recoverable_via_reclaim(self, sim):
        dep = self.make(sim, max_flows=1)
        self.run_flows(sim, dep, [6001])
        eng = self.active_engine(dep)
        sim.run(until=sim.now + 30_000.0)
        assert eng.reclaim_idle_flows() == 1
        # The freed slot hosts a (re-created) flow without exhaustion.
        self.run_flows(sim, dep, [6001])
        assert len(eng._flow_idx) == 1

    def test_busy_entries_not_reclaimed(self, sim):
        dep = self.make(sim)
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        # 100% loss deployment would be cleaner, but simply check a flow
        # with a pending lease: inject at the switch with stores failed.
        for store in dep.stores:
            store.fail()
        dep.bed.aggs[0].process(Packet.udp(e1.ip, s11.ip, 6001, 7777))
        sim.run(until=50_000.0)
        eng = dep.engines["agg1"]
        assert eng.reclaim_idle_flows() == 0  # lease still pending
        eng.shutdown()
        sim.run_until_idle(max_events=2_000_000)
