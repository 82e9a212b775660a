"""Wall-clock scoped timers for profiling the event-loop hot path.

Everything else in the reproduction runs on simulated time; this is the
one sanctioned use of the wall clock in ``src/``, for answering "how many
simulated events per wall-second does this machine execute"
(``repro.observe.trajectory.run_raw_eventloop``, the shard runner's
per-worker wall times). Timer results may feed a
:class:`~repro.telemetry.metrics.Histogram`, but never a metric that a
paper figure reads — wall clock must not leak into reported physics.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.telemetry.metrics import Histogram


class ScopedTimer:
    """Context manager measuring elapsed wall-clock time.

    Usage::

        with ScopedTimer("drain") as t:
            sim.run_until_idle()
        print(t.elapsed_s, t.rate(sim.events_executed))

    Pass ``histogram=`` to record the elapsed microseconds on exit, e.g.
    for repeated-section profiling.
    """

    __slots__ = ("name", "histogram", "_start", "elapsed_s")

    def __init__(self, name: str = "", histogram: Optional[Histogram] = None) -> None:
        self.name = name
        self.histogram = histogram
        self._start: Optional[float] = None
        self.elapsed_s = 0.0

    def __enter__(self) -> "ScopedTimer":
        self._start = time.perf_counter()  # repro: noqa[RD201] -- this module IS the sanctioned wall-clock profiler (events/wall-second); results never feed figure metrics
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stop(self) -> float:
        """Freeze the timer (idempotent); returns elapsed seconds."""
        if self._start is not None:
            self.elapsed_s = time.perf_counter() - self._start  # repro: noqa[RD201] -- wall-clock profiler by design; see module docstring
            self._start = None
            if self.histogram is not None:
                self.histogram.observe(self.elapsed_us)
        return self.elapsed_s

    @property
    def elapsed_us(self) -> float:
        return self.elapsed_s * 1e6

    def rate(self, count: float) -> float:
        """``count`` per wall-second (0 if the scope took no measurable time)."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return count / self.elapsed_s
