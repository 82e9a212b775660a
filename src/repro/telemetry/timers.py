"""Wall-clock scoped timers for profiling the event-loop hot path.

Everything else in the reproduction runs on simulated time; this is the
one sanctioned use of the wall clock in ``src/``, for answering "how many
simulated events per wall-second does this machine execute"
(``repro.observe.trajectory.run_raw_eventloop``, the shard runner's
per-worker wall times). Timer results never feed a metric that a paper
figure reads — wall clock must not leak into reported physics. The
verifier's wall-clock rule (RD201) covers every module but this one.
"""

from __future__ import annotations

import time


class ScopedTimer:
    """Context manager measuring elapsed wall-clock time.

    Usage::

        with ScopedTimer() as t:
            sim.run_until_idle()
        print(t.elapsed_s, t.rate(sim.events_executed))
    """

    __slots__ = ("_start", "elapsed_s")

    def __init__(self) -> None:
        self._start = 0.0
        self.elapsed_s = 0.0

    def __enter__(self) -> "ScopedTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed_s = time.perf_counter() - self._start

    def rate(self, count: float) -> float:
        """``count`` per wall-second (0 if the scope took no measurable time)."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return count / self.elapsed_s
