"""Fig 8: end-to-end RTT when RedPlane-NAT processes packets vs. others.

Paper result (per-packet RTT CDF over replayed traces):

* Switch-NAT and RedPlane-NAT share the same p50/p90 (7 / 8 us) — RedPlane
  adds no read-path overhead;
* their p99 is slow-path dominated (110 us vs 142 us; RedPlane adds the
  lease round trip to the new-flow install);
* FT Switch-NAT w/ controller: p99 185 us (management-network detour);
* server-based NATs: 7-14x higher median; FTMB plotted from its paper.
"""

from __future__ import annotations

from repro import RedPlaneConfig, Simulator, deploy
from repro.analysis import summarize
from repro.apps import NatApp
from repro.baselines import (
    ControllerFtBlock,
    ExternalController,
    PlainAppBlock,
    ServerNat,
    ftmb_sample_latencies,
    install_nf_routes,
    tunnel_to_nf,
)
from repro.net.packet import Packet, ip_aton
from repro.net.topology import build_testbed
from repro.switch.asic import SwitchASIC
from repro.workloads.harness import EchoResponder, RttProbe
from repro.workloads.traces import five_tuple_trace

from _bench_utils import emit, print_header, print_rows

NUM_PACKETS = 4000
NUM_FLOWS = 60
STAGGER_US = 300.0


def _trace(src_ip, dst_ip, seed=2):
    return five_tuple_trace(NUM_PACKETS, NUM_FLOWS, src_ip, dst_ip,
                            flow_stagger_us=STAGGER_US, seed=seed)


def run_switch_nat(block_factory=None):
    """Switch NAT on the testbed; block_factory wraps the app per switch."""
    sim = Simulator(seed=11)
    bed = build_testbed(sim, agg_factory=lambda s, n, ip: SwitchASIC(s, n, ip))
    controller = ExternalController(sim)
    for agg in bed.aggs:
        if block_factory is None:
            block = PlainAppBlock(agg, NatApp())
        else:
            block = block_factory(agg, controller)
        agg.add_block(block)
    block.app.provision(bed, [])
    s11, e1 = bed.servers[0], bed.externals[0]
    EchoResponder(e1)
    probe = RttProbe(s11)
    probe.replay(_trace(s11.ip, e1.ip))
    sim.run_until_idle()
    return probe.rtts_us


def run_redplane_nat():
    sim = Simulator(seed=11)
    dep = deploy(sim, NatApp)
    s11, e1 = dep.bed.servers[0], dep.bed.externals[0]
    EchoResponder(e1)
    probe = RttProbe(s11)
    probe.replay(_trace(s11.ip, e1.ip))
    sim.run_until_idle()
    return probe.rtts_us


def run_server_nat(replicated: bool):
    sim = Simulator(seed=11)
    bed = build_testbed(sim)
    replica_ips = []
    if replicated:
        for i, name in enumerate(["nfr1", "nfr2"]):
            rep = ServerNat(sim, name, ip_aton(f"10.0.2.{60 + i}"))
            bed.topology.add_node(rep)
            bed.topology.connect(bed.tors[1], rep)
            bed.tors[1].table.add(rep.ip, 32, [bed.tors[1].ports[-1]])
            replica_ips.append(rep.ip)
    nf = ServerNat(sim, "nf", ip_aton("10.0.1.50"), replica_ips=replica_ips)
    bed.topology.add_node(nf)
    bed.topology.connect(bed.tors[0], nf)
    bed.tors[0].table.add(nf.ip, 32, [bed.tors[0].ports[-1]])
    install_nf_routes(bed, nf)

    s11, e1 = bed.servers[0], bed.externals[0]
    EchoResponder(e1)
    probe = RttProbe(s11)
    events = _trace(s11.ip, e1.ip)
    for event in events:  # steer outbound packets through the NF tunnel
        event.pkt = tunnel_to_nf(event.pkt, s11.ip, nf.ip)
        event.pkt.ip.identification = event.trace_id
    probe.replay(events)
    sim.run_until_idle()
    return probe.rtts_us


def test_fig08(run_once):
    def experiment():
        return {
            "Switch-NAT": run_switch_nat(),
            "FT Switch-NAT w/ controller": run_switch_nat(
                lambda agg, ctl: ControllerFtBlock(agg, NatApp(), ctl)
            ),
            "RedPlane-NAT": run_redplane_nat(),
            "Server-NAT": run_server_nat(replicated=False),
            "FT Server-NAT": run_server_nat(replicated=True),
            "FTMB-NAT (reported)": ftmb_sample_latencies(NUM_PACKETS, seed=1),
        }

    results = run_once(experiment)
    print_header("Fig 8 — end-to-end RTT, NAT implementations (us)")
    rows = []
    stats = {}
    for name, rtts in results.items():
        s = summarize(rtts)
        stats[name] = s
        rows.append({"implementation": name, "p50": s["p50"], "p90": s["p90"],
                     "p99": s["p99"], "n": int(s["count"])})
    print_rows(rows, ["implementation", "p50", "p90", "p99", "n"])
    emit("paper: Switch/RedPlane p50=7/7, p90=8/8, p99=110/142; "
          "controller p99=185; servers 7-14x median")

    from repro.analysis import ascii_cdf

    emit()
    emit(ascii_cdf(
        {
            "switch": results["Switch-NAT"],
            "redplane": results["RedPlane-NAT"],
            "server": results["Server-NAT"],
            "ftmb": results["FTMB-NAT (reported)"],
        },
        log_x=True,
    ))

    # Shape assertions (the paper's claims).
    assert stats["RedPlane-NAT"]["p50"] == stats["Switch-NAT"]["p50"]
    assert stats["RedPlane-NAT"]["p90"] <= stats["Switch-NAT"]["p90"] + 1.0
    assert stats["RedPlane-NAT"]["p99"] > stats["Switch-NAT"]["p99"]
    assert (
        stats["FT Switch-NAT w/ controller"]["p99"]
        > stats["RedPlane-NAT"]["p99"]
    )
    for server in ("Server-NAT", "FT Server-NAT", "FTMB-NAT (reported)"):
        ratio = stats[server]["p50"] / stats["Switch-NAT"]["p50"]
        assert ratio > 5.0, (server, ratio)
    assert stats["FT Server-NAT"]["p50"] > stats["Server-NAT"]["p50"]
