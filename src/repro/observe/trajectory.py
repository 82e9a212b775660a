"""Two pinned wall-clock probes: the raw event loop and the full pipeline.

:func:`run_raw_eventloop` is timer churn only — the heap floor under
everything else; ``python -m bench run`` reports it as
``net.simulator.raw_events_per_s`` so a reader can tell a slow machine
from slow code. :func:`run_pipeline` is the full stack on Sync-Counter
and exists for the self-profiler overhead gate
(``benchmarks/test_perf_eventloop.py``). Throughput itself is measured
by ``python -m bench run`` and nowhere else (see ``bench/README.md``).
"""

from __future__ import annotations

from repro.telemetry import ScopedTimer

RAW_EVENTS = 200_000
PIPELINE_PACKETS = 2_000
SEED = 5


def run_raw_eventloop() -> dict:
    """Timer churn only: the heap floor of everything else."""
    from repro import Simulator

    sim = Simulator(seed=SEED)

    def tick() -> None:
        if sim.events_executed < RAW_EVENTS:
            sim.schedule(1.0, tick)

    # A handful of concurrent timer chains approximates the heap depth of
    # a real run better than one serial chain.
    for i in range(8):
        sim.schedule(float(i), tick)
    with ScopedTimer("raw") as timer:
        sim.run_until_idle()
    return {
        "events": sim.events_executed,
        "wall_s": timer.elapsed_s,
        "events_per_s": timer.rate(sim.events_executed),
    }


def run_pipeline(observe: bool = False) -> dict:
    """Full stack: testbed, ASIC pipeline, replication, state store.

    ``observe=True`` attaches the self-profiler for the run (the overhead
    benchmark compares this against the plain run; the <10% bound is
    asserted on this scenario, whose ~tens-of-µs events give the
    per-event accounting something real to amortize against).
    """
    from repro import Simulator, deploy
    from repro.apps.counter import SyncCounterApp
    from repro.net.packet import Packet

    sim = Simulator(seed=SEED)
    dep = deploy(sim, SyncCounterApp)
    sender = dep.bed.externals[0]
    receiver = dep.bed.servers[0]

    def send_packet() -> None:
        sender.send(Packet.udp(sender.ip, receiver.ip, 5555, 7777))

    for i in range(PIPELINE_PACKETS):
        sim.schedule(i * 10.0, send_packet)
    bundle = None
    if observe:
        from repro.observe import attach

        bundle = attach(sim, profile=True)
    with ScopedTimer("pipeline") as timer:
        sim.run_until_idle()
    result = {
        "events": sim.events_executed,
        "packets": sum(e.stats["app_packets"] for e in dep.engines.values()),
        "wall_s": timer.elapsed_s,
        "events_per_s": timer.rate(sim.events_executed),
    }
    result["packets_per_s"] = timer.rate(result["packets"])
    if bundle is not None:
        result["profile"] = bundle.profiler.to_dict()
        sim.detach_observe()
    return result
