"""Measurement helpers: statistics, bandwidth accounting, fluid throughput."""

from repro.analysis.attribution import (
    AckBreakdown,
    attribute_acks,
    flow_table,
    render_table,
    verify_sums,
)
from repro.analysis.bandwidth import (
    SNAPSHOT_HEADER_BYTES,
    fig10_row,
    fig11_series,
    protocol_share,
    snapshot_bandwidth_mbps,
)
from repro.analysis.latency import (
    LatencyBands,
    overhead_vs_baseline,
    slow_path_fraction,
    split_fast_slow,
)
from repro.analysis.plotting import ascii_cdf, ascii_series, ascii_timeline
from repro.analysis.scale import (
    TrafficProfile,
    overhead_at_scale,
    paper_profiles,
    per_switch_bandwidth,
    scale_sweep,
)
from repro.analysis.stats import cdf_points, format_cdf_row, percentile, summarize
from repro.analysis.throughput import (
    APP_PROFILES,
    AppProfile,
    fig12_rows,
    fig13_series,
    kv_throughput_mpps,
    throughput_mpps,
)

__all__ = [
    "AckBreakdown",
    "attribute_acks",
    "flow_table",
    "render_table",
    "verify_sums",
    "SNAPSHOT_HEADER_BYTES",
    "fig10_row",
    "fig11_series",
    "protocol_share",
    "snapshot_bandwidth_mbps",
    "ascii_cdf",
    "ascii_series",
    "ascii_timeline",
    "TrafficProfile",
    "overhead_at_scale",
    "paper_profiles",
    "per_switch_bandwidth",
    "scale_sweep",
    "LatencyBands",
    "overhead_vs_baseline",
    "slow_path_fraction",
    "split_fast_slow",
    "cdf_points",
    "format_cdf_row",
    "percentile",
    "summarize",
    "APP_PROFILES",
    "AppProfile",
    "fig12_rows",
    "fig13_series",
    "kv_throughput_mpps",
    "throughput_mpps",
]
