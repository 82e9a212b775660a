"""Fig 12: data-plane throughput with and without RedPlane, per app.

Paper result (64 B packets, three senders, ~122.5 Mpps aggregation-switch
forwarding bound): read-centric apps (NAT, firewall, LB) and async
HH-detection keep the full line rate with RedPlane; EPC-SGW is slightly
lower (packets buffered through the network during signaling replication);
Sync-Counter drops to roughly half, bottlenecked by the state store.

Python cannot drive 122.5 Mpps packet-by-packet, so — like the paper's own
"analytical model-based simulation" (§7.2) — the headline rows come from
the fluid model, and a scaled-down packet-level run with a finite-capacity
store validates the shape (the sync app saturates at the store's service
rate while the read app tracks the offered load).
"""

from __future__ import annotations

import pytest

from repro import Simulator, deploy
from repro.analysis import APP_PROFILES, fig12_rows, throughput_mpps
from repro.apps import NatApp
from repro.apps.counter import SyncCounterApp
from repro.net.packet import Packet
from repro.workloads.traces import five_tuple_trace

from _bench_utils import emit, print_header, print_rows


def measure_scaled_delivery(app_factory, offered_gap_us: float,
                            store_service_us: float, packets: int = 1500):
    """Deliverable fraction at a given offered rate with a slow store."""
    sim = Simulator(seed=9)
    dep = deploy(sim, app_factory, num_shards=1, chain_length=1)
    for store in dep.stores:
        store.service_time_us = store_service_us
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    delivered = []
    s11.default_handler = lambda pkt: delivered.append(sim.now)
    for i in range(packets):
        pkt = Packet.udp(e1.ip, s11.ip, 6000 + (i % 32), 7777)
        sim.schedule(i * offered_gap_us, e1.send, pkt)
    horizon = packets * offered_gap_us
    sim.run(until=horizon * 3 + 200_000)
    # Delivered rate over the offered window (packets per us).
    in_window = [t for t in delivered if t <= horizon + 100.0]
    return len(in_window) / horizon


def test_fig12(run_once):
    def experiment():
        rows = fig12_rows(num_shards=3)
        # Scaled validation: store service 5 us (0.2 Mpps), offered 0.5 Mpps.
        sync_rate = measure_scaled_delivery(SyncCounterApp, offered_gap_us=2.0,
                                            store_service_us=5.0)
        nat_rate = measure_scaled_delivery(NatApp, offered_gap_us=2.0,
                                           store_service_us=5.0)
        return rows, sync_rate, nat_rate

    rows, sync_rate, nat_rate = run_once(experiment)
    print_header("Fig 12 — data-plane throughput w/ and w/o RedPlane (Mpps)")
    print_rows(
        [{"application": r["app"], "without RedPlane": r["without_mpps"],
          "with RedPlane": r["with_mpps"]} for r in rows],
        ["application", "without RedPlane", "with RedPlane"],
    )
    offered = 0.5
    emit(f"scaled packet-level check (offered {offered} Mpps, store capacity "
          f"0.2 Mpps): sync-counter delivered {sync_rate:.3f} Mpps, "
          f"NAT delivered {nat_rate:.3f} Mpps")
    emit("paper: read-centric & HH unchanged at 122.5; EPC slightly lower; "
          "Sync-Counter ~half (state-store bound)")

    by_app = {r["app"]: r for r in rows}
    for name in ("nat", "firewall", "load-balancer", "hh-detector"):
        assert by_app[name]["with_mpps"] == pytest.approx(
            by_app[name]["without_mpps"]
        )
    assert 0.90 < (by_app["epc-sgw"]["with_mpps"]
                   / by_app["epc-sgw"]["without_mpps"]) < 1.0
    ratio = by_app["sync-counter"]["with_mpps"] / by_app["sync-counter"]["without_mpps"]
    assert 0.4 < ratio < 0.6  # "nearly half"

    # Packet-level shape: the sync app saturates at the store's capacity,
    # the read-centric app tracks the offered load.
    assert sync_rate < 0.30          # bound by the 0.2 Mpps store
    assert nat_rate > 0.45           # tracks the 0.5 Mpps offered load
    assert nat_rate / sync_rate > 1.6
