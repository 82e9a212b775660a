"""Fig 14: end-to-end TCP throughput during switch failover and recovery.

Paper result: iperf through a RedPlane NAT sustains its goodput; when the
owning aggregation switch fails, goodput collapses, then recovers within
about a second (0.9-1.0 s: failure detection/rerouting plus the remaining
lease time); when the switch comes back and ECMP shifts flows to it again,
there is a second, similar dip. Without RedPlane, the TCP connection is
broken for good (the NAT translation no longer exists anywhere).

Scaled-down run: the iperf hosts attach over 1 Gbps links (so a Python
event loop can carry the multi-second timeline); timing — detection delay,
lease period, recovery — is unscaled.
"""

from __future__ import annotations

from repro import RedPlaneConfig, Simulator, deploy
from repro.apps import NatApp
from repro.baselines import PlainAppBlock
from repro.net.topology import build_testbed
from repro.switch.asic import SwitchASIC
from repro.workloads.tcp import TcpReceiver, TcpSender

from _bench_utils import emit, print_header, print_rows

FAIL_AT_US = 2_000_000.0
RECOVER_AT_US = 5_000_000.0
END_US = 8_000_000.0
DETECT_US = 350_000.0
LEASE_US = 1_000_000.0
BUCKET_US = 100_000.0


def _attach_iperf(sim, bed):
    """Add 1 Gbps iperf endpoints: sender in rack 1, receiver at core 1."""
    sender = TcpSender(sim, "iperf-c", bed.servers[0].ip + 100, dst_ip=0,
                       segment_bytes=16 * 1024, goodput_bucket_us=BUCKET_US,
                       max_cwnd=64.0)
    bed.topology.add_node(sender)
    bed.topology.connect(bed.tors[0], sender, bandwidth_gbps=1.0)
    bed.tors[0].table.add(sender.ip, 32, [bed.tors[0].ports[-1]])
    receiver = TcpReceiver(sim, "iperf-s", bed.externals[0].ip + 100)
    bed.topology.add_node(receiver)
    bed.topology.connect(bed.cores[0], receiver, bandwidth_gbps=1.0)
    bed.cores[0].table.add(receiver.ip, 32, [bed.cores[0].ports[-1]])
    peer_ports = [p for p in bed.cores[1].ports
                  if p.link and p.link.other_end(p).node is bed.cores[0]]
    bed.cores[1].table.add(receiver.ip, 32, peer_ports)
    sender.dst_ip = receiver.ip
    return sender, receiver


def run_redplane(inject_failure: bool):
    sim = Simulator(seed=14)
    dep = deploy(sim, NatApp, config=RedPlaneConfig(lease_period_us=LEASE_US))
    sender, receiver = _attach_iperf(sim, dep.bed)
    sender.start()
    sim.run(until=FAIL_AT_US)
    owner = max(dep.engines.values(), key=lambda e: e.stats["app_packets"])
    if inject_failure:
        dep.bed.topology.fail_node(owner.switch, detect_delay_us=DETECT_US)
        sim.run(until=RECOVER_AT_US)
        dep.bed.topology.recover_node(owner.switch, detect_delay_us=DETECT_US)
    sim.run(until=END_US)
    sender.stop()
    sim.run(until=END_US + 500_000)
    return sender.goodput_series_gbps(END_US), receiver


def run_no_redplane():
    """Same failure without RedPlane: the NAT state dies with the switch."""
    sim = Simulator(seed=14)
    bed = build_testbed(sim, agg_factory=lambda s, n, ip: SwitchASIC(s, n, ip))
    blocks = {}
    for agg in bed.aggs:
        block = PlainAppBlock(agg, NatApp())
        agg.add_block(block)
        blocks[agg.name] = block
    block.app.provision(bed, [])
    sender, receiver = _attach_iperf(sim, bed)
    sender.start()
    sim.run(until=FAIL_AT_US)
    owner = max(bed.aggs, key=lambda a: blocks[a.name].packets)
    bed.topology.fail_node(owner, detect_delay_us=DETECT_US)
    sim.run(until=END_US)
    sender.stop()
    sim.run(until=END_US + 500_000)
    return sender.goodput_series_gbps(END_US), receiver


def _recovery_time_s(series, fail_at_s, healthy):
    """Seconds from the failure until goodput is back above 50% healthy."""
    for t, gbps in series:
        if t > fail_at_s and gbps > 0.5 * healthy:
            return t - fail_at_s
    return float("inf")


def test_fig14(run_once):
    def experiment():
        baseline, _ = run_redplane(inject_failure=False)
        with_rp, _ = run_redplane(inject_failure=True)
        without, _ = run_no_redplane()
        return baseline, with_rp, without

    baseline, with_rp, without = run_once(experiment)

    print_header("Fig 14 — TCP goodput during failover and recovery (Gbps)")
    rows = []
    for (t, base), (_t1, rp), (_t2, no) in zip(baseline, with_rp, without):
        if abs(t * 10 - round(t * 10)) < 1e-9 and round(t * 10) % 2 == 0:
            rows.append({"time_s": t, "no failure": base,
                         "failure + RedPlane": rp, "failure, no RedPlane": no})
    print_rows(rows, ["time_s", "no failure", "failure + RedPlane",
                      "failure, no RedPlane"])

    healthy = max(g for t, g in baseline if 0.5 < t < 2.0)
    fail_s = FAIL_AT_US / 1e6
    recover_s = RECOVER_AT_US / 1e6

    dip = min(g for t, g in with_rp if fail_s < t < fail_s + 0.3)
    recovery = _recovery_time_s(with_rp, fail_s, healthy)
    second_dip_recovery = _recovery_time_s(
        [(t, g) for t, g in with_rp if t > recover_s + 0.05], recover_s, healthy
    )
    from repro.analysis import ascii_timeline

    emit()
    emit("failure + RedPlane, as a timeline (every 5th bucket):")
    emit(ascii_timeline(
        [(t, g) for i, (t, g) in enumerate(with_rp) if i % 5 == 0],
        events={2.0: "switch failed", 5.0: "switch recovered"},
    ))
    emit(f"healthy={healthy:.2f} Gbps; failover dip={dip:.2f}; "
          f"recovery after failure={recovery:.2f}s; "
          f"after switch-recovery disruption={second_dip_recovery + recover_s - recover_s:.2f}s")
    emit("paper: recovery within ~0.9-1.0 s at both the failure and the "
          "recovery events; without RedPlane the connection never recovers")

    assert healthy > 0.5
    assert dip < 0.1 * healthy                 # the outage is real
    assert recovery < 1.6                       # "within a second" (+detect)
    # The switch-recovery event also disrupts briefly, then recovers.
    assert second_dip_recovery < 1.6
    # Without RedPlane the flow stays dead after the failure.
    dead_tail = [g for t, g in without if t > fail_s + 1.5]
    assert max(dead_tail) < 0.1 * healthy
