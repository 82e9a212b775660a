"""One pinned wall-clock probe: the raw event loop.

:func:`run_raw_eventloop` is timer churn only — the heap floor under
everything else; ``python -m bench run`` reports it as
``net.simulator.raw_events_per_s`` so a reader can tell a slow machine
from slow code. Throughput itself is measured by ``python -m bench run``
and nowhere else (see ``bench/README.md``).
"""

from __future__ import annotations

from repro.telemetry import ScopedTimer

RAW_EVENTS = 200_000
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
    with ScopedTimer() as timer:
        sim.run_until_idle()
    return {
        "events": sim.events_executed,
        "wall_s": timer.elapsed_s,
        "events_per_s": timer.rate(sim.events_executed),
    }
