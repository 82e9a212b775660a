#!/usr/bin/env python
"""Scenario: an in-switch NAT that does not break connections on failure.

This is the paper's motivating example (Fig 1): a NAT on a programmable
switch holds per-connection translation state; when the switch fails and
traffic reroutes, a plain NAT drops every established connection, while
the RedPlane NAT restores its translation table from the state store.

We run a live TCP bulk transfer through the NAT, kill the switch carrying
it mid-transfer, and plot the goodput timeline (an ASCII Fig 14).

Run:  python examples/fault_tolerant_nat.py
"""

import sys

from repro import RedPlaneConfig, Simulator, deploy
from repro.apps import NatApp
from repro.workloads.tcp import TcpReceiver, TcpSender


def main() -> None:
    sim = Simulator(seed=14)
    dep = deploy(sim, NatApp,
                 config=RedPlaneConfig(lease_period_us=1_000_000.0))
    bed = dep.bed

    # iperf-like endpoints on 1 Gbps access links (so the multi-second
    # timeline stays simulable; fabric timing is unscaled).
    sender = TcpSender(sim, "iperf-c", bed.servers[0].ip + 100, dst_ip=0,
                       segment_bytes=16 * 1024, goodput_bucket_us=100_000.0,
                       max_cwnd=64.0)
    bed.topology.add_node(sender)
    bed.topology.connect(bed.tors[0], sender, bandwidth_gbps=1.0)
    bed.tors[0].table.add(sender.ip, 32, [bed.tors[0].ports[-1]])

    receiver = TcpReceiver(sim, "iperf-s", bed.externals[0].ip + 100)
    bed.topology.add_node(receiver)
    bed.topology.connect(bed.cores[0], receiver, bandwidth_gbps=1.0)
    bed.cores[0].table.add(receiver.ip, 32, [bed.cores[0].ports[-1]])
    peer = [p for p in bed.cores[1].ports
            if p.link and p.link.other_end(p).node is bed.cores[0]]
    bed.cores[1].table.add(receiver.ip, 32, peer)
    sender.dst_ip = receiver.ip

    sender.start()
    sim.run(until=2_000_000)  # 2 s of healthy transfer

    owner = max(dep.engines.values(), key=lambda e: e.stats["app_packets"])
    print(f"t=2.0s: failing {owner.switch.name} "
          f"(the switch holding the NAT state for this connection)")
    dep.bed.topology.fail_node(owner.switch, detect_delay_us=350_000.0)

    sim.run(until=6_000_000)
    sender.stop()
    sim.run(until=6_500_000)

    print("\ngoodput timeline (each row = 100 ms):")
    healthy = None
    for t, gbps in sender.goodput_series_gbps(6_000_000):
        bar = "#" * int(gbps * 40)
        marker = "  <-- switch failed" if abs(t - 2.0) < 0.05 else ""
        print(f"  {t:5.1f}s  {gbps:5.2f} Gbps  {bar}{marker}")
        if healthy is None and gbps > 0.5:
            healthy = gbps

    series = sender.goodput_series_gbps(6_000_000)
    outage = [t for t, g in series if t > 2.0 and g < 0.1]
    recovered = [t for t, g in series if t > 2.0 and g > 0.5]
    if recovered:
        print(f"\nconnection survived: outage {outage[0]:.1f}s-"
              f"{recovered[0]:.1f}s, recovered in "
              f"{recovered[0] - 2.0:.1f}s after the failure")
        print("(detection/reroute + the remaining lease time, §7.3)")
    print(f"TCP timeouts during the outage: {sender.timeouts}, "
          f"bytes delivered: {receiver.bytes_received / 1e6:.1f} MB")
    if not recovered:
        sys.exit("connection did NOT recover — unexpected!")


if __name__ == "__main__":
    main()
