"""Ablation: retransmission timeout vs. loss recovery and buffer cost.

The switch-side retransmitter (§5.2) resends a mirrored truncated request
when no acknowledgment arrives within the timeout. A short timeout recovers
lost updates quickly but fires spuriously (duplicate requests the store
must dedupe/sequence away); a long timeout stalls gated reads and the
piggybacked outputs of retried flows.
"""

from __future__ import annotations

from repro import RedPlaneConfig, Simulator, deploy
from repro.analysis import percentile
from repro.apps.counter import SyncCounterApp
from repro.net.links import LinkImpairment
from repro.net.packet import Packet

from _bench_utils import emit, print_header, print_rows

TIMEOUTS_US = [16.0, 48.0, 200.0, 1000.0]
LOSS = 0.05
PACKETS = 400


def measure(timeout_us: float):
    sim = Simulator(seed=19)
    dep = deploy(sim, SyncCounterApp,
                 config=RedPlaneConfig(retransmit_timeout_us=timeout_us))
    dep.bed.impair_fabric(LinkImpairment(drop_rate=LOSS))
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    delivered = []
    s11.default_handler = lambda pkt: delivered.append(sim.now)
    for i in range(PACKETS):
        pkt = Packet.udp(e1.ip, s11.ip, 6000 + (i % 16), 7777)
        sim.schedule(i * 100.0, e1.send, pkt)
    sim.run(until=PACKETS * 100.0 + 5_000_000.0)

    retrans = sum(e.stats["retransmissions"] for e in dep.engines.values())
    peak_kb = max(a.peak_buffer_occupancy for a in dep.bed.aggs) / 1024.0
    # Did replication converge despite loss? Compare store vs switch state.
    converged = 0
    checked = 0
    eng = max(dep.engines.values(), key=lambda e: e.stats["app_packets"])
    for key, idx in list(eng._flow_idx.items()):
        rec = dep.stores[0].records.get(key)
        if rec is None:
            continue
        checked += 1
        if rec.vals == eng.flow_state(key):
            converged += 1
    return retrans, peak_kb, converged, checked


def test_ablation_retransmit_timeout(run_once):
    def experiment():
        return {t: measure(t) for t in TIMEOUTS_US}

    results = run_once(experiment)
    print_header("Ablation — retransmission timeout under 5% request loss")
    rows = []
    for timeout, (retrans, peak_kb, converged, checked) in results.items():
        rows.append({
            "timeout (us)": timeout,
            "retransmissions": retrans,
            "peak buffer (KB)": peak_kb,
            "converged flows": f"{converged}/{checked}",
        })
    print_rows(rows, ["timeout (us)", "retransmissions", "peak buffer (KB)",
                      "converged flows"])
    emit("expected: all timeouts converge; short timeouts retransmit more")

    for timeout, (retrans, _peak, converged, checked) in results.items():
        assert checked > 0
        assert converged == checked, (timeout, converged, checked)
    # Shorter timeouts produce more (sometimes spurious) retransmissions.
    assert results[TIMEOUTS_US[0]][0] >= results[TIMEOUTS_US[-1]][0]
