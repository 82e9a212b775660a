"""Best-of-K estimation and its diagnostics.

Sizing evidence (bench/README.md): on this container a single repetition's
wall ranges over 26 %, median-of-5 groups over 5.7 %, best-of-5 groups over
2.4 %. CPU time tracks wall in every repetition, so the noise is a slower
CPU, not descheduling: the minimum is the estimate, the spread a diagnostic.

The slow-downs come in phases of seconds (a busy neighbour on the host: a
200 ms calibration loop reads 0.044 s or 0.075 s, nothing in between), and
a phase that touches every repetition spoils a best-of-K of whole
repetitions. The runs are deterministic, so a repetition is cut at fixed
points of simulated progress into segments that do identical work every
time, and the estimate is the sum of each segment's best time over the K
repetitions: a segment is only slow if it was slow K times.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence

#: A run is flagged ``noisy`` when its three fastest repetitions span more
#: than this share of the fastest.
NOISY_SPAN = 0.04
MIN_REPS = 3
MAX_REPS = 7
SETUP_MIN_SAMPLES = 9
SETUP_MIN_TOTAL_S = 0.5


def spread(values: Sequence[float]) -> float:
    """``(p75 - p25) / median``, the quartile rule the driver applies."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


#: One repetition: its segments in order. A segment is its wall in seconds,
#: or a tuple of walls when several processes ran it side by side.
Repetition = Sequence[Any]


def rep_wall(rep: Repetition) -> float:
    """Wall of a whole repetition: parallel lanes cost their slowest."""
    return sum(max(seg) if isinstance(seg, tuple) else seg for seg in rep)


def summarize(reps: Sequence[Repetition]) -> Dict[str, Any]:
    """Whole-repetition diagnostics of the K timed repetitions: minimum,
    median, quartile spread, and the ``noisy`` flag."""
    walls = sorted(rep_wall(rep) for rep in reps)
    fastest = walls[:3]
    return {
        "min_s": walls[0],
        "median_s": statistics.median(walls),
        "spread": spread(walls),
        "noisy": (fastest[-1] - fastest[0]) / fastest[0] > NOISY_SPAN,
    }


def segment_floor(reps: Sequence[Repetition]) -> float:
    """Sum over segments of the fastest repetition of that segment; for
    parallel lanes, the slowest lane's fastest repetition.

    Falls back to the fastest whole repetition when the repetitions were
    not cut alike (the caller reports that as a failed check: it means the
    run was not deterministic).
    """
    if len({len(rep) for rep in reps}) != 1:
        return min(rep_wall(rep) for rep in reps)
    total = 0.0
    for column in zip(*reps):
        if isinstance(column[0], tuple):
            total += max(min(lane) for lane in zip(*column))
        else:
            total += min(column)
    return total


def more_reps_wanted(walls: Sequence[float], reps: int, seconds: float) -> bool:
    """Keep repeating? ``reps`` fixes K; otherwise measure for ``seconds``
    of timed region, but never fewer than MIN_REPS nor more than MAX_REPS."""
    if reps:
        return len(walls) < reps
    if len(walls) < MIN_REPS:
        return True
    return sum(walls) < seconds and len(walls) < MAX_REPS


def timed(fn: Callable[[], Any]) -> tuple:
    """``(wall seconds, return value)`` of one call, GC collected before
    and left enabled during (users run with it on)."""
    gc.collect()
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def timed_segments(run: Callable[[Callable[[], None]], Any]) -> tuple:
    """``(segment walls, return value)`` of one timed region; ``run`` gets
    the ``mark`` callback that closes a segment."""
    gc.collect()
    clock = time.perf_counter
    stamps = [clock()]
    add = stamps.append
    value = run(lambda: add(clock()))
    add(clock())
    return [b - a for a, b in zip(stamps, stamps[1:])], value


def sample_setup(build: Callable[[], Any], samples: List[float],
                 min_samples: int, min_total_s: float) -> None:
    """Back-to-back from-scratch constructions appended to ``samples``
    until it holds ``min_samples`` and ``min_total_s`` of set-up. One cold
    sample of a 1-40 ms phase is timer and cache jitter, not a measurement.
    """
    while len(samples) < min_samples or sum(samples) < min_total_s:
        wall, _built = timed(build)
        samples.append(wall)
