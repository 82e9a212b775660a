"""Fig 9: end-to-end RTT for RedPlane-enabled applications.

Paper result: NAT, firewall, load balancer, EPC-SGW, and HH detection all
share the same 8 us median — identical to their non-fault-tolerant
versions — because their data paths only read state (or replicate
asynchronously). Sync-Counter, which synchronously replicates on every
packet, adds ~20 us, of which ~12 us is the 3-way chain replication
(compare "w/o chain").
"""

from __future__ import annotations

from repro import Simulator, deploy
from repro.analysis import summarize
from repro.apps import (
    EpcSgwApp,
    FirewallApp,
    HeavyHitterApp,
    LoadBalancerApp,
    NatApp,
    VIP,
)
from repro.apps.counter import AsyncCounterApp, SyncCounterApp
from repro.net.packet import Packet, TCP_SYN
from repro.workloads.harness import EchoResponder, RttProbe
from repro.workloads.traces import epc_trace, five_tuple_trace, vlan_trace

from _bench_utils import emit, print_header, print_rows

NUM_PACKETS = 3000
SEED = 21


def run_nat():
    sim = Simulator(seed=SEED)
    dep = deploy(sim, NatApp)
    s11, e1 = dep.bed.servers[0], dep.bed.externals[0]
    EchoResponder(e1)
    probe = RttProbe(s11)
    probe.replay(five_tuple_trace(NUM_PACKETS, 50, s11.ip, e1.ip,
                                  flow_stagger_us=300.0, seed=SEED))
    sim.run_until_idle()
    return probe.rtts_us


def run_firewall():
    sim = Simulator(seed=SEED)
    dep = deploy(sim, FirewallApp)
    s11, e1 = dep.bed.servers[0], dep.bed.externals[0]
    EchoResponder(e1)
    probe = RttProbe(s11)
    events = five_tuple_trace(NUM_PACKETS, 50, s11.ip, e1.ip,
                              flow_stagger_us=300.0, seed=SEED)
    seen_flows = set()
    for event in events:  # convert to TCP; SYN on each flow's first packet
        flags = 0 if event.flow in seen_flows else TCP_SYN
        seen_flows.add(event.flow)
        tcp = Packet.tcp(s11.ip, e1.ip, event.pkt.l4.sport,
                         event.pkt.l4.dport, flags=flags,
                         payload=event.pkt.payload)
        tcp.ip.identification = event.trace_id
        event.pkt = tcp
    probe.replay(events)
    sim.run_until_idle()
    return probe.rtts_us


def run_load_balancer():
    sim = Simulator(seed=SEED)
    dep = deploy(sim, LoadBalancerApp)
    e1 = dep.bed.externals[0]
    for server in dep.bed.servers:
        EchoResponder(server)
    probe = RttProbe(e1)
    events = five_tuple_trace(NUM_PACKETS, 50, e1.ip, VIP,
                              flow_stagger_us=300.0, seed=SEED, dport=80)
    probe.replay(events)
    sim.run_until_idle()
    return probe.rtts_us


def run_epc():
    sim = Simulator(seed=SEED)
    dep = deploy(sim, EpcSgwApp)
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    EchoResponder(s11)
    probe = RttProbe(e1)
    probe.replay(epc_trace(NUM_PACKETS, 40, e1.ip, s11.ip, seed=SEED))
    sim.run_until_idle()
    return probe.rtts_us


def run_hh():
    sim = Simulator(seed=SEED)
    dep = deploy(
        sim,
        lambda: HeavyHitterApp(vlans=[10, 20, 30], threshold=10 ** 6),
    )
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    EchoResponder(s11)
    probe = RttProbe(e1)
    probe.replay(vlan_trace(NUM_PACKETS, [10, 20, 30], 40, e1.ip, s11.ip,
                            seed=SEED))
    sim.run(until=40_000)
    for agg in dep.bed.aggs:
        agg.pktgen.stop()
    sim.run_until_idle()
    return probe.rtts_us


def run_async_counter():
    sim = Simulator(seed=SEED)
    dep = deploy(sim, lambda: AsyncCounterApp(slots=64))
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    EchoResponder(s11)
    probe = RttProbe(e1)
    probe.replay(five_tuple_trace(NUM_PACKETS, 50, e1.ip, s11.ip,
                                  flow_stagger_us=300.0, seed=SEED))
    sim.run(until=40_000)
    for agg in dep.bed.aggs:
        agg.pktgen.stop()
    sim.run_until_idle()
    return probe.rtts_us


def run_sync_counter(chain_length: int):
    sim = Simulator(seed=SEED)
    dep = deploy(sim, SyncCounterApp, chain_length=chain_length)
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    EchoResponder(s11)
    probe = RttProbe(e1)
    probe.replay(five_tuple_trace(NUM_PACKETS, 50, e1.ip, s11.ip,
                                  flow_stagger_us=300.0, seed=SEED))
    sim.run_until_idle()
    return probe.rtts_us


def test_fig09(run_once):
    def experiment():
        return {
            "NAT": run_nat(),
            "Firewall": run_firewall(),
            "Load balancer": run_load_balancer(),
            "EPC-SGW": run_epc(),
            "HH-detection": run_hh(),
            "Async-Counter": run_async_counter(),
            "Sync-Counter (w/o chain)": run_sync_counter(1),
            "Sync-Counter (w/ chain)": run_sync_counter(3),
        }

    results = run_once(experiment)
    print_header("Fig 9 — end-to-end RTT, RedPlane-enabled apps (us)")
    stats = {name: summarize(r) for name, r in results.items()}
    rows = [
        {"application": name, "p50": s["p50"], "p90": s["p90"], "p99": s["p99"]}
        for name, s in stats.items()
    ]
    print_rows(rows, ["application", "p50", "p90", "p99"])
    emit("paper: all read-centric/async apps share an 8 us median; "
          "Sync-Counter adds ~20 us of which ~12 us is chain replication")

    read_centric = ["NAT", "Firewall", "Load balancer", "EPC-SGW",
                    "HH-detection", "Async-Counter"]
    medians = [stats[name]["p50"] for name in read_centric]
    assert max(medians) - min(medians) <= 2.0  # all share the same median

    base = stats["NAT"]["p50"]
    no_chain = stats["Sync-Counter (w/o chain)"]["p50"]
    with_chain = stats["Sync-Counter (w/ chain)"]["p50"]
    assert 3.0 <= no_chain - base <= 16.0        # sync replication cost
    assert 4.0 <= with_chain - no_chain <= 20.0  # chain replication cost
    assert 8.0 <= with_chain - base <= 32.0      # total ~20 us in the paper
