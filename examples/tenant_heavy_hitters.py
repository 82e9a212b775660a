#!/usr/bin/env python
"""Scenario: per-tenant heavy-hitter detection with bounded inconsistency.

A cloud operator enforces per-tenant QoS with count-min sketches in the
switch (one sketch set per VLAN, §6). Sketches are updated on *every*
packet, so synchronous replication is unaffordable; RedPlane instead takes
consistent snapshots with the lazy two-copy structure (Algorithm 1) and
replicates them every millisecond. After a switch failure, the detector
recovers to a sketch at most one snapshot period old — estimates are
slightly stale, never garbage.

Run:  python examples/tenant_heavy_hitters.py
"""

from repro import Simulator, deploy
from repro.apps import HeavyHitterApp
from repro.apps.heavy_hitter import vlan_store_key
from repro.net.packet import Packet
from repro.workloads.traces import vlan_trace

TENANTS = [10, 20]


def main() -> None:
    sim = Simulator(seed=3)
    # The app declares its sketches as snapshot structures, so deploy()
    # runs it in bounded-inconsistency mode with a replicator per switch.
    dep = deploy(sim, lambda: HeavyHitterApp(vlans=TENANTS, threshold=50))

    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    # Tenant 10 sends a heavy flow plus background noise; tenant 20 only
    # background traffic.
    for i in range(300):
        sim.schedule(i * 20.0, e1.send,
                     Packet.udp(e1.ip, s11.ip, 5555, 7777, vlan=10))
    for event in vlan_trace(400, TENANTS, 50, e1.ip, s11.ip, seed=9):
        sim.schedule_at(event.time_us, e1.send, event.pkt)
    sim.run(until=12_000)

    app = max(dep.apps.values(), key=lambda a: a.packets_sketched)
    active = next(a for a in dep.bed.aggs
                  if dep.apps[a.name] is app)
    heavy_key = Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key()
    print(f"live sketch on {active.name}: tenant 10 heavy-flow estimate = "
          f"{app.estimate(10, heavy_key)} (threshold 50)")
    print(f"heavy-hitter flags raised: {app.heavy_hits}")
    rep = dep.replicators[active.name]
    print(f"snapshots completed: {rep.epoch}, inconsistency bound "
          f"epsilon ~= {rep.staleness_us():.0f} us")

    # --- the switch dies; restore the detector on the other switch -------
    print(f"\n--- {active.name} fails; restoring sketch from the store ---")
    for agg in dep.bed.aggs:
        agg.pktgen.stop()
    sim.run_until_idle()
    dep.bed.topology.fail_node(active)
    standby = next(a for a in dep.bed.aggs if a is not active)
    standby_app = dep.apps[standby.name]
    store = dep.stores[0]
    for vlan in TENANTS:
        for row in range(standby_app.depth):
            rec = store.records.get(vlan_store_key(vlan, row))
            if rec is None:
                continue
            values = [rec.snapshot_vals.get(i, 0)
                      for i in range(standby_app.width)]
            standby_app.sketches[vlan][row].cp_install(values)

    restored = standby_app.estimate(10, heavy_key)
    truth = app.estimate(10, heavy_key)
    print(f"restored estimate on {standby.name}: {restored} "
          f"(truth at failure: {truth})")
    lost = truth - restored
    max_loss_window = rep.period_us
    print(f"counts lost to the failure: {lost} "
          f"(bounded by ~one snapshot period of traffic, epsilon = "
          f"{max_loss_window:.0f} us)")
    assert restored >= 50, "detector must still flag the heavy flow"
    print("the heavy flow is still detected after recovery ✔")


if __name__ == "__main__":
    main()
