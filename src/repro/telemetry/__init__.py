"""Unified observability: metrics, traces, and wall-clock timers.

Every measurement the reproduction reports — the Fig 8-15 and Table 1/2
numbers, the ad-hoc drop counters, the protocol engine's statistics —
flows through this package instead of bespoke per-component attributes:

* :class:`MetricRegistry` — labeled counters, gauges, and streaming
  histograms, owned by the :class:`~repro.net.simulator.Simulator` and
  shared by every component of a run;
* :class:`Tracer` — typed, sim-timestamped trace records (packet drops,
  lease transitions, retransmissions, snapshots, failovers) in a bounded
  ring buffer with an optional JSONL sink;
* :class:`ScopedTimer` — wall-clock timing for profiling the event-loop
  hot path (the only place in ``src/`` wall-clock time is read).

Components *publish* through the registry/tracer; analysis modules, tests
and the ``python -m repro.tools metrics|trace`` CLI *read* from them with
``registry.value(name, **labels)``, ``.total(name, **label_filter)`` and
``.snapshot()`` — there is no second, dict-shaped reading surface. See
docs/TELEMETRY.md for naming conventions and the label schema.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    percentile,
)
from repro.telemetry.perfetto import (
    dump_chrome_trace,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry.spans import CompletenessReport, PacketSpan, SpanBuilder
from repro.telemetry.timers import ScopedTimer
from repro.telemetry.trace import TraceRecord, Tracer, read_jsonl

__all__ = [
    "CompletenessReport",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "PacketSpan",
    "ScopedTimer",
    "SpanBuilder",
    "TraceRecord",
    "Tracer",
    "dump_chrome_trace",
    "export_chrome_trace",
    "percentile",
    "read_jsonl",
    "validate_chrome_trace",
]
