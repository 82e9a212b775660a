#!/usr/bin/env python
"""Scenario: operating RedPlane — store failures and the epsilon watchdog.

Two operational hazards the paper's design anticipates but does not
evaluate, both implemented in this reproduction:

1. a *state-store server* dies: the chain-replication group is healed by
   the failover coordinator and switches are repointed to the new head,
   while replication keeps flowing;
2. the store becomes unreachable in bounded-inconsistency mode: the
   epsilon watchdog (§5.5) notices that snapshots stopped completing and
   applies the configured policy before the inconsistency bound is blown.

Run:  python examples/operations_playbook.py
"""

from repro import Simulator, deploy
from repro.apps.counter import AsyncCounterApp, SyncCounterApp
from repro.core.epsilon import EpsilonGuard, EpsilonPolicy
from repro.net.packet import Packet
from repro.statestore import StoreFailoverCoordinator


def store_failover_demo() -> None:
    print("=== 1. chain-replica failure is healed transparently ===")
    sim = Simulator(seed=8)
    dep = deploy(sim, SyncCounterApp)  # one shard, chain of three
    coordinator = StoreFailoverCoordinator(
        sim, dep.shard_map, dep.chains, switches=dep.bed.aggs,
        heartbeat_interval_us=50_000.0, missed_threshold=2,
    )
    coordinator.start()
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    got = []
    s11.default_handler = got.append

    e1.send(Packet.udp(e1.ip, s11.ip, 5555, 7777))
    sim.run(until=50_000)
    head = dep.shard_map.addresses()[0]
    print(f"chain: {[n.name for n in coordinator.alive_chain(0)]}, "
          f"head at {head.ip:#010x}")

    print("-- killing the chain head (st1) --")
    dep.stores[0].fail()
    sim.run(until=sim.now + 300_000)
    head = dep.shard_map.addresses()[0]
    print(f"healed chain: {[n.name for n in coordinator.alive_chain(0)]}, "
          f"new head at {head.ip:#010x} "
          f"(detection {coordinator.detection_latency_us() / 1000:.0f} ms)")

    e1.send(Packet.udp(e1.ip, s11.ip, 5555, 7777))
    coordinator.stop()
    sim.run_until_idle()
    key = Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key()
    print(f"replication continued: survivors hold count = "
          f"{[st.records[key].vals[0] for st in dep.stores if not st.failed]}"
          f", packets delivered = {len(got)}\n")


def epsilon_watchdog_demo() -> None:
    print("=== 2. epsilon watchdog under store outage (bounded mode) ===")
    sim = Simulator(seed=9)
    dep = deploy(sim, lambda: AsyncCounterApp(slots=8))
    agg = dep.bed.aggs[0]
    replicator = dep.replicators[agg.name]
    guard = EpsilonGuard(replicator, epsilon_us=5_000.0,
                         policy=EpsilonPolicy.DROP_PACKETS,
                         on_violation=lambda: print(
                             f"t={sim.now / 1000:.1f} ms: epsilon EXCEEDED — "
                             f"dropping app traffic until snapshots resume"))
    agg.pipeline.blocks.insert(0, guard)
    guard.start()

    sim.run(until=4_000)
    print(f"t=4 ms: snapshots healthy, staleness = "
          f"{replicator.staleness_us():.0f} us (epsilon = 5000 us)")

    print("-- store servers become unreachable --")
    for store in dep.stores:
        store.fail()
    sim.run(until=20_000)
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    for i in range(5):
        sim.schedule(i * 100.0, agg.process,
                     Packet.udp(e1.ip, s11.ip, 5555, 7777))
    sim.run(until=30_000)
    print(f"t=30 ms: guard dropped {guard.packets_dropped} packets; the "
          f"un-replicated state window stayed bounded instead of growing")
    guard.stop()
    for rep in dep.replicators.values():
        rep.stop()
    for a in dep.bed.aggs:
        a.pktgen.stop()
    for engine in dep.engines.values():
        engine.shutdown()  # release copies still retransmitting to the dead store
    sim.run_until_idle()


if __name__ == "__main__":
    store_failover_demo()
    epsilon_watchdog_demo()
