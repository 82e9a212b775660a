"""The fast-path steady-state scenario and its identity oracle.

One scenario definition feeds the ``repro.tools fastpath`` CLI, the CI
``perf-smoke`` job and tier-1's identity tests, so they all check exactly
the same workload. Wall-clock throughput is the business of
``python -m bench run`` (``nat_steady_ref`` / ``nat_steady_fastpath``),
which reuses :func:`identity_report`.

The workload is the honest fast-path case from the paper's evaluation:
RedPlane-NAT in steady state (Fig 8/12). Each flow's connection-opening
packet takes the full slow path (lease acquisition, control-plane
translation install, replication); every later packet is read-only and
rides the lease fast path. That is the regime the flow cache accelerates;
write-per-packet workloads (Sync-Counter) replay the full replication
protocol and gain little by construction — see docs/PERFORMANCE.md.

Identity is checked on three axes after every run: executed event count,
the whole trace (timestamps, types, and field order of every record —
the scenario's simulator keeps an unbounded ring, and a verdict fails if
any record was dropped), and the metrics snapshot minus the ``fastpath.*`` keys the fast
path itself publishes. A fast-path run must match the reference run on
all three before its throughput number means anything.
"""

from __future__ import annotations

import hashlib

from repro import Simulator, deploy
from repro.apps.nat import NatApp, install_nat_routes
from repro.fastpath.runtime import FastPath
from repro.net.packet import Packet
from repro.telemetry import ScopedTimer

#: Scenario defaults: 50 flows x 400 packets is long enough that ramp
#: misses (one per flow plus the control-plane install flushes) are noise
#: against steady-state hits, and short enough for a CI-friendly wall time.
FLOWS = 50
PACKETS_PER_FLOW = 400
SEED = 5
#: Inter-packet spacing within the round-robin generator (simulated us).
SPACING_US = 2.0


def _trace_digest(sim: Simulator) -> str:
    """SHA-256 over the trace ring: ts, type, and fields in
    emission order (field *order* matters — it is what ``to_json`` writes)."""
    h = hashlib.sha256()
    for record in sim.tracer.tail(len(sim.tracer)):
        h.update(repr((record.ts, record.type,
                       tuple(record.fields.items()))).encode())
    return h.hexdigest()


def _metrics_without_fastpath(sim: Simulator) -> dict:
    """Snapshot minus the ``fastpath.*`` families the fast path publishes;
    everything else must be bit-identical between on and off runs."""
    return {k: v for k, v in sim.metrics.snapshot().items()
            if not k.startswith("fastpath.")}


def run_scenario(
    flows: int = FLOWS,
    packets_per_flow: int = PACKETS_PER_FLOW,
    seed: int = SEED,
    fastpath: bool = False,
) -> dict:
    """Run the NAT steady-state scenario once; return measurements.

    The result carries both the throughput numbers and the three identity
    fingerprints (events, trace digest, filtered metrics), so callers can
    compare a fast-path run against a reference run directly.
    """
    # The digest is the identity oracle: it must cover every record, not
    # the tail a bounded ring would keep (183k records at the defaults).
    sim = Simulator(seed=seed, trace_ring=None)
    dep = deploy(sim, NatApp)
    install_nat_routes(dep.bed)
    if fastpath:
        FastPath.install(sim)
    sender = dep.bed.servers[0]
    external = dep.bed.externals[0]
    dst_ip = external.ip

    def send(sport: int) -> None:
        sender.send(Packet.udp(sender.ip, dst_ip, sport, 7777))

    # Round-robin over flows (distinct source ports): each flow's packets
    # are packets_per_flow apart in sequence, so by its second packet the
    # lease is granted and the NAT entry installed — read-only after.
    t = 0.0
    for _p in range(packets_per_flow):
        for f in range(flows):
            sim.schedule_at(t, send, 5000 + f)
            t += SPACING_US
    with ScopedTimer("fastpath_scenario") as timer:
        sim.run_until_idle()

    # ECMP spreads flows across both aggregation switches; sum the
    # distinct app instances (deploy may share one across engines).
    apps = {id(e.app): e.app for e in dep.engines.values()}
    packets = sum(app.translated_out for app in apps.values())
    result = {
        "flows": flows,
        "packets_per_flow": packets_per_flow,
        "seed": seed,
        "fastpath": fastpath,
        "packets": packets,
        "events": sim.events_executed,
        "wall_s": timer.elapsed_s,
        "packets_per_s": timer.rate(packets),
        "records_emitted": sim.tracer.records_emitted,
        "records_dropped": sim.tracer.records_dropped,
        "trace_digest": _trace_digest(sim),
        "metrics": _metrics_without_fastpath(sim),
    }
    if fastpath:
        fp = sim.fastpath
        fp.publish_metrics()
        result["fastpath_stats"] = fp.stats()
    return result


def identity_report(reference: dict, candidate: dict) -> dict:
    """Compare two ``run_scenario`` results on the three identity axes."""
    return {
        "events": reference["events"] == candidate["events"],
        "records_emitted":
            reference["records_emitted"] == candidate["records_emitted"],
        "trace": reference["trace_digest"] == candidate["trace_digest"],
        "metrics": reference["metrics"] == candidate["metrics"],
    }


def run_ab(
    flows: int = FLOWS,
    packets_per_flow: int = PACKETS_PER_FLOW,
    seed: int = SEED,
) -> dict:
    """Reference run vs fast-path run of the same scenario, plus verdicts.

    ``identical`` is True only when every identity axis matches and
    neither run dropped a trace record (``trace_complete``: a digest
    over a truncated ring vouches for the tail only);
    ``speedup_same_scenario`` is the direct on/off ratio — what the flow
    cache itself buys over the default hop path.
    """
    off = run_scenario(flows, packets_per_flow, seed, False)
    on = run_scenario(flows, packets_per_flow, seed, True)
    identity = identity_report(off, on)
    identity["trace_complete"] = (
        off["records_dropped"] == 0 and on["records_dropped"] == 0
    )
    return {
        "off": off,
        "on": on,
        "identity": identity,
        "identical": all(identity.values()),
        "speedup_same_scenario":
            on["packets_per_s"] / off["packets_per_s"],
    }
