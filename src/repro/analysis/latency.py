"""Latency decomposition helpers for the evaluation benchmarks.

Breaks an end-to-end RTT distribution into the paper's narrative
components: the line-rate fast path, the control-plane slow path of
new-flow packets, and the synchronous-replication detour of writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.stats import percentile


@dataclass
class LatencyBands:
    """An RTT population split at detected knee points."""

    fast_path: List[float]
    slow_path: List[float]
    threshold_us: float


def split_fast_slow(rtts: Sequence[float], factor: float = 3.0) -> LatencyBands:
    """Split a distribution at ``factor x`` its median.

    For read-centric apps the fast band is the line-rate forwarding path
    and the slow band is new-flow slow-path packets; the split makes the
    paper's "99th percentile dominated by the control plane" narrative
    quantitative.
    """
    if not rtts:
        raise ValueError("no samples")
    median = percentile(rtts, 50)
    threshold = median * factor
    fast = [r for r in rtts if r <= threshold]
    slow = [r for r in rtts if r > threshold]
    return LatencyBands(fast_path=fast, slow_path=slow, threshold_us=threshold)


def slow_path_fraction(rtts: Sequence[float], factor: float = 3.0) -> float:
    bands = split_fast_slow(rtts, factor)
    return len(bands.slow_path) / len(rtts)


def overhead_vs_baseline(rtts: Sequence[float], baseline: Sequence[float],
                         p: float = 50.0) -> float:
    """Added latency at percentile ``p`` relative to a baseline run (us)."""
    return percentile(rtts, p) - percentile(baseline, p)
