"""Tests for the epsilon watchdog (§5.5) and store-failover coordination."""

import pytest

from repro import RedPlaneConfig, Simulator, deploy
from repro.apps.counter import AsyncCounterApp, SyncCounterApp
from repro.core.epsilon import EpsilonGuard, EpsilonPolicy
from repro.net.packet import Packet
from repro.statestore import (
    ShardMap,
    ShardAddress,
    StoreFailoverCoordinator,
)


def bounded_deployment(sim):
    dep = deploy(sim, lambda: AsyncCounterApp(slots=8))
    return dep, dep.replicators


# ---------------------------------------------------------------------------
# EpsilonGuard
# ---------------------------------------------------------------------------


class TestEpsilonGuard:
    def test_transparent_while_replication_healthy(self, sim):
        dep, reps = bounded_deployment(sim)
        agg = dep.bed.aggs[0]
        guard = EpsilonGuard(reps[agg.name], epsilon_us=5_000.0)
        agg.pipeline.blocks.insert(0, guard)
        guard.start()
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        got = []
        s11.default_handler = got.append
        for i in range(10):
            sim.schedule(i * 500.0, e1.send,
                         Packet.udp(e1.ip, s11.ip, 5555, 7777))
        sim.run(until=20_000)
        guard.stop()
        for rep in reps.values():
            rep.stop()
        sim.run_until_idle()
        assert not guard.violated
        assert guard.packets_dropped == 0
        assert len(got) == 10

    def test_drop_policy_when_store_unreachable(self, sim):
        dep, reps = bounded_deployment(sim)
        agg = dep.bed.aggs[0]
        guard = EpsilonGuard(reps[agg.name], epsilon_us=4_000.0,
                             policy=EpsilonPolicy.DROP_PACKETS)
        agg.pipeline.blocks.insert(0, guard)
        guard.start()
        # Kill every store replica: snapshots can never be acknowledged.
        for store in dep.stores:
            store.fail()
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        got = []
        s11.default_handler = got.append
        # Give the guard time to trip, then send app traffic at agg1 only.
        sim.run(until=10_000)
        for i in range(5):
            sim.schedule(i * 100.0, agg.process,
                         Packet.udp(e1.ip, s11.ip, 5555, 7777))
        sim.run(until=30_000)
        guard.stop()
        for rep in reps.values():
            rep.stop()
        for agg_ in dep.bed.aggs:
            agg_.pktgen.stop()
        assert guard.violated
        assert guard.packets_dropped == 5
        assert got == []

    def test_fail_switch_policy(self, sim):
        dep, reps = bounded_deployment(sim)
        agg = dep.bed.aggs[0]
        fired = []
        guard = EpsilonGuard(reps[agg.name], epsilon_us=3_000.0,
                             policy=EpsilonPolicy.FAIL_SWITCH,
                             on_violation=lambda: fired.append(sim.now))
        guard.start()
        for store in dep.stores:
            store.fail()
        sim.run(until=20_000)
        for rep in reps.values():
            rep.stop()
        for agg_ in dep.bed.aggs:
            agg_.pktgen.stop()
        assert agg.failed
        assert len(fired) == 1

    def test_invalid_epsilon_rejected(self, sim):
        dep, reps = bounded_deployment(sim)
        with pytest.raises(ValueError):
            EpsilonGuard(reps["agg1"], epsilon_us=0.0)


# ---------------------------------------------------------------------------
# Store failover
# ---------------------------------------------------------------------------


class TestStoreFailover:
    def test_mid_chain_failure_is_healed(self, sim):
        dep = deploy(sim, SyncCounterApp)  # chain of 3
        coordinator = StoreFailoverCoordinator(
            sim, dep.shard_map, dep.chains, switches=dep.bed.aggs,
            heartbeat_interval_us=50_000.0, missed_threshold=2,
        )
        coordinator.start()
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        got = []
        s11.default_handler = got.append
        e1.send(Packet.udp(e1.ip, s11.ip, 5555, 7777))
        sim.run(until=sim.now + 50_000)
        assert len(got) == 1

        dep.stores[1].fail()  # middle of the chain
        sim.run(until=sim.now + 300_000)
        assert coordinator.reconfigurations == 1
        assert [n.name for n in coordinator.alive_chain(0)] == ["st1", "st3"]

        # Replication still works through the healed chain.
        e1.send(Packet.udp(e1.ip, s11.ip, 5555, 7777))
        coordinator.stop()
        sim.run_until_idle()
        assert len(got) == 2
        key = Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key()
        assert dep.stores[2].records[key].vals == [2]

    def test_head_failure_repoints_shard_map(self, sim):
        dep = deploy(sim, SyncCounterApp)
        coordinator = StoreFailoverCoordinator(
            sim, dep.shard_map, dep.chains, switches=dep.bed.aggs,
            heartbeat_interval_us=50_000.0, missed_threshold=2,
        )
        coordinator.start()
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        got = []
        s11.default_handler = got.append
        e1.send(Packet.udp(e1.ip, s11.ip, 5555, 7777))
        sim.run(until=sim.now + 50_000)

        old_head = dep.stores[0]
        old_head.fail()
        sim.run(until=sim.now + 300_000)
        new_head = dep.shard_map.addresses()[0]
        assert new_head.ip == dep.stores[1].ip

        e1.send(Packet.udp(e1.ip, s11.ip, 5555, 7777))
        coordinator.stop()
        sim.run_until_idle()
        # The new head (and tail) applied the update; count continued at 2
        # because the surviving replicas held the state.
        key = Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key()
        assert dep.stores[1].records[key].vals == [2]
        assert dep.stores[2].records[key].vals == [2]
        assert len(got) == 2

    def test_total_shard_loss_raises(self, sim):
        dep = deploy(sim, SyncCounterApp)
        coordinator = StoreFailoverCoordinator(
            sim, dep.shard_map, dep.chains,
            heartbeat_interval_us=10_000.0, missed_threshold=1,
        )
        coordinator.start()
        for store in dep.stores:
            store.fail()
        with pytest.raises(RuntimeError):
            sim.run(until=sim.now + 100_000)

    def test_shard_chain_mismatch_rejected(self, sim):
        shard_map = ShardMap([ShardAddress(1, 4800)])
        with pytest.raises(ValueError):
            StoreFailoverCoordinator(sim, shard_map, chains=[])

    def test_detection_latency(self, sim):
        shard_map = ShardMap([ShardAddress(1, 4800)])
        from repro.statestore.server import StateStoreNode

        node = StateStoreNode(sim, "n", 1)
        coordinator = StoreFailoverCoordinator(
            sim, shard_map, [[node]],
            heartbeat_interval_us=100.0, missed_threshold=5,
        )
        assert coordinator.detection_latency_us() == 500.0
