"""Metric names, units and directions: the one list everything else reads.

``BENCHMARK.json`` carries the same lists (``bench/tests`` asserts they are
equal). Per-layer names are ``<repro module>.<metric>``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from bench.trace import LAYERS

#: (name, unit, better, regression bound as a share of the parent's median).
#: The two timing bounds are as wide as the contract allows because this
#: shared container is that noisy, not because the estimator is that blunt:
#: quartile spreads over ten runs were 1.5-4 % in quiet half-hours and
#: 6-30 % in loud ones (README, "selfcheck"). A bound under the loud-period
#: spread would reject later PRs for the machine's mood.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("pkts_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("events_per_pkt", "1", "lower", 0.005),
)

_COUNTS_AND_RATIOS: Tuple[Tuple[str, str, str], ...] = (
    ("net.simulator.events", "count", "lower"),
    ("net.simulator.schedule_calls", "count", "lower"),
    ("net.simulator.us_per_event", "us", "lower"),
    ("net.simulator.raw_events_per_s", "1/s", "higher"),
    ("net.links.transmits", "count", "lower"),
    ("net.links.schedules_per_transmit", "1", "lower"),
    ("net.links.drops", "count", "lower"),
    ("net.packet.byte_size_calls", "count", "lower"),
    ("net.packet.pack_calls", "count", "lower"),
    ("net.packet.copies", "count", "lower"),
    ("net.routing.forwards", "count", "lower"),
    ("switch.asic.pkts", "count", "lower"),
    ("switch.registers.accesses", "count", "lower"),
    ("switch.control_plane.ops", "count", "lower"),
    ("switch.control_plane.punts", "count", "lower"),
    ("switch.mirror.copies", "count", "lower"),
    ("core.engine.calls", "count", "lower"),
    ("core.engine.slow_path_frac", "1", "lower"),
    ("core.engine.lease_requests", "count", "lower"),
    ("core.engine.lease_renewals", "count", "lower"),
    ("core.engine.retransmissions", "count", "lower"),
    ("apps.calls", "count", "lower"),
    ("statestore.server.requests", "count", "lower"),
    ("statestore.server.leases_granted", "count", "lower"),
    ("statestore.server.stale_rejects", "count", "lower"),
    ("statestore.server.buffered", "count", "lower"),
    ("statestore.backend.commits", "count", "lower"),
    ("statestore.backend.recoveries", "count", "lower"),
    ("telemetry.trace.emits", "count", "lower"),
    ("telemetry.trace.dropped", "count", "lower"),
    ("telemetry.metrics.calls", "count", "lower"),
    ("fastpath.hits", "count", "higher"),
    ("fastpath.misses", "count", "lower"),
    ("fastpath.hit_frac", "1", "higher"),
    ("fastpath.invalidations", "count", "lower"),
    ("shard.resolve_s", "s", "lower"),
    ("shard.worker_wall_max_s", "s", "lower"),
    ("shard.ghost_s", "s", "lower"),
    ("shard.merge_s", "s", "lower"),
    ("shard.overhead_s", "s", "lower"),
    ("shard.frames", "count", "lower"),
    ("shard.replica_events_ratio", "1", "lower"),
    ("shard.cpu_s_total", "s", "lower"),
    ("shard.speedup_vs_single", "1", "higher"),
    ("chaos.campaigns", "count", "higher"),
    ("chaos.campaigns_per_s", "1/s", "higher"),
    ("chaos.violations", "count", "lower"),
    ("chaos.fuzz.generate_s", "s", "lower"),
    ("model.check_s", "s", "lower"),
    ("traced_region_s", "s", "lower"),
    ("trace_overhead_frac", "1", "lower"),
)

#: (name, unit, better). One ``<layer>.self_s`` per traced layer (they sum
#: to ``traced_region_s``), then the counts and ratios.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (f"{layer}.self_s", "s", "lower") for layer in LAYERS
) + _COUNTS_AND_RATIOS


def benchmark_json(workloads: List[Tuple[str, str]], run_seconds: int) -> Dict:
    """The ``BENCHMARK.json`` document these lists describe."""
    return {
        "command": ["python3", "-m", "bench", "run"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
