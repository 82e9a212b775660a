"""Fig 10: RedPlane replication bandwidth overhead per application.

Paper result (share of total traffic that is RedPlane protocol bytes,
original packets riding as piggyback counted as application traffic):
read-centric apps (NAT, firewall, load balancer) ~0.1-0.9 %; EPC-SGW
12.8 %; HH-detector (1 ms snapshots) negligible; Sync-Counter 51.2 %
(25.6 % requests + 25.6 % responses).
"""

from __future__ import annotations

from repro import Simulator, deploy
from repro.analysis import fig10_row
from repro.apps import (
    EpcSgwApp,
    FirewallApp,
    HeavyHitterApp,
    LoadBalancerApp,
    NatApp,
    VIP,
    install_nat_routes,
    install_vip_routes,
    make_dip_allocator,
)
from repro.apps.counter import SyncCounterApp
from repro.net.packet import Packet, TCP_SYN
from repro.workloads.traces import epc_trace, five_tuple_trace, vlan_trace

from _bench_utils import emit, print_header, print_rows

NUM_PACKETS = 3000
#: Few long flows for the read-centric apps: the paper replays 100k-packet
#: traces where each flow amortizes its one-time lease/install messages
#: over thousands of packets; 8 flows x ~375 packets approximates that
#: per-flow amortization at simulable scale.
NUM_FLOWS_READ_CENTRIC = 8
SEED = 33

#: The experiment's offered load in the paper (three senders, 64 B): used
#: to scale the rate-independent snapshot bandwidth of the HH detector.
PAPER_LINE_RATE_GBPS = 207.6e6 * 64 * 8 / 1e9


def _small_packets(events):
    """Rewrite a trace to 64-byte packets, as the Fig 10 experiment uses."""
    for event in events:
        event.pkt.payload = b""
    return events


def _finish(sim, dep):
    sim.run_until_idle()
    return fig10_row(dep.bed.aggs)


def run_nat():
    sim = Simulator(seed=SEED)
    dep = deploy(sim, NatApp)
    install_nat_routes(dep.bed)
    s11, e1 = dep.bed.servers[0], dep.bed.externals[0]
    for event in _small_packets(
        five_tuple_trace(NUM_PACKETS, NUM_FLOWS_READ_CENTRIC, s11.ip, e1.ip,
                         seed=SEED, flow_stagger_us=100.0)
    ):
        sim.schedule_at(event.time_us, s11.send, event.pkt)
    return _finish(sim, dep)


def run_firewall():
    sim = Simulator(seed=SEED)
    dep = deploy(sim, FirewallApp)
    s11, e1 = dep.bed.servers[0], dep.bed.externals[0]
    events = five_tuple_trace(NUM_PACKETS, NUM_FLOWS_READ_CENTRIC, s11.ip,
                              e1.ip, seed=SEED, flow_stagger_us=100.0)
    seen = set()
    for event in events:
        flags = 0 if event.flow in seen else TCP_SYN
        seen.add(event.flow)
        pkt = Packet.tcp(s11.ip, e1.ip, event.pkt.l4.sport,
                         event.pkt.l4.dport, flags=flags)
        sim.schedule_at(event.time_us, s11.send, pkt)
    return _finish(sim, dep)


def run_lb():
    sim = Simulator(seed=SEED)
    dep = deploy(sim, LoadBalancerApp)
    for store in dep.stores:
        store.allocator = make_dip_allocator([s.ip for s in dep.bed.servers])
    install_vip_routes(dep.bed)
    e1 = dep.bed.externals[0]
    for event in _small_packets(
        five_tuple_trace(NUM_PACKETS, NUM_FLOWS_READ_CENTRIC, e1.ip, VIP,
                         seed=SEED, dport=80, flow_stagger_us=100.0)
    ):
        sim.schedule_at(event.time_us, e1.send, event.pkt)
    return _finish(sim, dep)


def run_epc():
    sim = Simulator(seed=SEED)
    dep = deploy(sim, EpcSgwApp)
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    for event in epc_trace(NUM_PACKETS, 40, e1.ip, s11.ip, seed=SEED):
        event.pkt.payload = event.pkt.payload[:9]  # headers only
        sim.schedule_at(event.time_us, e1.send, event.pkt)
    return _finish(sim, dep)


def run_hh():
    """Snapshot replication bandwidth is rate-independent (a fixed number
    of slot messages per period), so its *share* depends on the offered
    traffic volume. We measure the snapshot byte rate packet-level and
    express it against the experiment's 207.6 Mpps x 64 B offered load —
    what the paper's instrumented switch would see."""
    sim = Simulator(seed=SEED)
    dep = deploy(
        sim,
        lambda: HeavyHitterApp(vlans=[10, 20, 30], threshold=10 ** 6),
    )
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    for event in _small_packets(
        vlan_trace(NUM_PACKETS, [10, 20, 30], 40, e1.ip, s11.ip, seed=SEED)
    ):
        sim.schedule_at(event.time_us, e1.send, event.pkt)
    duration_us = 20_000.0
    sim.run(until=duration_us)
    for agg in dep.bed.aggs:
        agg.pktgen.stop()
    sim.run_until_idle()
    agg = max(dep.bed.aggs, key=lambda a: a.bytes_protocol_out)
    snapshot_gbps = agg.bytes_protocol_out * 8 / (duration_us * 1000.0)
    resp_gbps = agg.bytes_protocol_in * 8 / (duration_us * 1000.0)
    total = PAPER_LINE_RATE_GBPS + snapshot_gbps + resp_gbps
    return {
        "original": PAPER_LINE_RATE_GBPS / total,
        "requests": snapshot_gbps / total,
        "responses": resp_gbps / total,
    }


def run_sync_counter():
    sim = Simulator(seed=SEED)
    dep = deploy(sim, SyncCounterApp)
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    for event in _small_packets(
        five_tuple_trace(NUM_PACKETS, 50, e1.ip, s11.ip, seed=SEED)
    ):
        sim.schedule_at(event.time_us, e1.send, event.pkt)
    return _finish(sim, dep)


def test_fig10(run_once):
    def experiment():
        return {
            "NAT": run_nat(),
            "Firewall": run_firewall(),
            "Load balancer": run_lb(),
            "EPC-SGW": run_epc(),
            "HH-detector": run_hh(),
            "Sync-Counter": run_sync_counter(),
        }

    results = run_once(experiment)
    print_header("Fig 10 — replication bandwidth share of total traffic (%)")
    rows = []
    shares = {}
    for name, parts in results.items():
        share = 100.0 * (parts["requests"] + parts["responses"])
        shares[name] = share
        rows.append({
            "application": name,
            "original%": 100.0 * parts["original"],
            "requests%": 100.0 * parts["requests"],
            "responses%": 100.0 * parts["responses"],
            "protocol%": share,
        })
    print_rows(rows, ["application", "original%", "requests%", "responses%",
                      "protocol%"])
    emit("paper: NAT/FW/LB ~0.1-0.9%, EPC-SGW 12.8%, HH ~0.2%, "
          "Sync-Counter 51.2%")

    for name in ("NAT", "Firewall", "Load balancer"):
        assert shares[name] < 5.0, name          # read-centric: negligible
    assert shares["HH-detector"] < 5.0           # async snapshots: negligible
    assert 6.0 < shares["EPC-SGW"] < 25.0        # mixed: noticeable
    assert 35.0 < shares["Sync-Counter"] < 65.0  # per-packet sync: huge
    assert shares["Sync-Counter"] > shares["EPC-SGW"] > shares["NAT"]

    # §7.2's at-scale check: "a topology with more RedPlane switches ...
    # is consistent with Fig 10 in terms of the percentage overhead".
    from repro.analysis import paper_profiles, scale_sweep

    emit()
    emit("at scale (analytical model, % protocol share per cluster size):")
    for name, profile in paper_profiles().items():
        sweep = scale_sweep(profile, [2, 8, 64])
        values = [round(100 * v, 2) for v in sweep.values()]
        emit(f"  {name:<14s} 2/8/64 switches: {values}")
        assert max(values) - min(values) < 1e-6  # scale-invariant share
