"""The demo views: ``repro.tools metrics | trace | spans | timeline``.

Each runs the shard registry's ``quickstart`` scenario
(:func:`repro.shard.scenarios.run_quickstart`: SyncCounterApp on the
paper testbed, one flow, a scripted owner failure, a second burst
released by the lease migration) in-process and reads what the
telemetry spine recorded — the :class:`~repro.telemetry.MetricRegistry`,
the :class:`~repro.telemetry.Tracer` ring, or the complete record stream
collected from ``Tracer.on_emit`` (the ring can truncate; the hook
cannot).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Any, Dict, List, Tuple


def quickstart_run(seed: int = 7, packets: int = 10) -> Tuple[Any, List[Any]]:
    """Run the registry's ``quickstart``; returns ``(sim, records)`` with
    every record the run emitted. Takes the simulator's ``on_emit`` slot."""
    from repro.net.simulator import Simulator
    from repro.shard.scenarios import get_scenario

    sim = Simulator(seed=seed)
    records: List[Any] = []
    sim.tracer.on_emit = records.append
    get_scenario("quickstart").fn(
        sim, lambda until: sim.run(until=until), packets=packets)
    return sim, records


def _filter_snapshot(snap: Dict[str, Dict[str, object]],
                     pattern: str) -> Dict[str, Dict[str, object]]:
    """Keep metrics whose name (with or without labels) matches the glob."""
    import fnmatch

    def keep(ident: str) -> bool:
        return (fnmatch.fnmatchcase(ident, pattern)
                or fnmatch.fnmatchcase(ident.split("{", 1)[0], pattern))

    return {section: {k: v for k, v in entries.items() if keep(k)}
            for section, entries in snap.items()}


def show_metrics(args: argparse.Namespace) -> int:
    import csv

    from repro.telemetry.metrics import render_snapshot

    sim, _records = quickstart_run(args.seed, args.packets)
    snap = sim.metrics.snapshot()
    if args.pattern:
        snap = _filter_snapshot(snap, args.pattern)
    if args.json:
        print(json.dumps(snap, indent=2, sort_keys=True))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["section", "metric", "field", "value"])
        for section in ("counters", "gauges", "histograms"):
            for ident, value in snap[section].items():
                if isinstance(value, dict):
                    for field in sorted(value):
                        writer.writerow([section, ident, field,
                                         f"{value[field]:g}"])
                else:
                    writer.writerow([section, ident, "value", f"{value:g}"])
    else:
        print(render_snapshot(snap))
    return 0


def show_trace(args: argparse.Namespace) -> int:
    sim, _records = quickstart_run(args.seed, args.packets)
    tail, since = args.tail, args.since
    if args.out:
        written = sim.tracer.flush_to(args.out)
        print(f"wrote {written} records to {args.out}", file=sys.stderr)
    emitted = sim.tracer.records_emitted
    retained = len(sim.tracer)
    print(f"# {emitted} records emitted, {retained} retained "
          f"(ring maxlen {sim.tracer.maxlen}); showing last {tail}"
          + (f" at/after t={since:g}us" if since is not None else ""),
          file=sys.stderr)
    dropped = sim.tracer.records_dropped
    if dropped:
        print(f"WARNING: ring truncated {dropped} records; span "
              f"reconstruction over this trace will report orphans — "
              f"use a JSONL sink for complete lifecycles",
              file=sys.stderr)
    records = sim.tracer.tail(len(sim.tracer)) if since is not None \
        else sim.tracer.tail(tail)
    if since is not None:
        records = [r for r in records if r.ts >= since][-tail:]
    for record in records:
        if args.json:
            print(record.to_json())
        else:
            fields = " ".join(f"{k}={v}" for k, v in record.fields.items())
            print(f"{record.ts:14.3f}  {record.type:<16s}  {fields}")
    return 0


def show_spans(args: argparse.Namespace) -> int:
    """Span completeness + latency attribution over the quickstart run."""
    from repro.analysis.attribution import (
        attribute_acks, flow_table, render_table, verify_sums,
    )
    from repro.telemetry.spans import SpanBuilder

    _sim, records = quickstart_run(args.seed, args.packets)
    builder = SpanBuilder(records)
    report = builder.verify()
    breakdowns = attribute_acks(records)
    sum_violation = verify_sums(breakdowns)
    status_counts = Counter(span.status for span in builder.spans.values())
    ok = report.ok and sum_violation is None
    if args.json:
        print(json.dumps({
            "completeness": {
                "spans": report.spans,
                "origin_events": report.origin_events,
                "terminal_events": report.terminal_events,
                "unterminated": report.unterminated,
                "orphaned": report.orphaned,
                "ok": report.ok,
            },
            "statuses": status_counts,
            "attribution": flow_table(breakdowns),
            "attribution_sums_ok": sum_violation is None,
        }, indent=2, sort_keys=True))
    else:
        print(f"completeness: {report.summary()}")
        print("statuses    : " + ", ".join(
            f"{k}={v}" for k, v in sorted(status_counts.items())))
        if sum_violation is not None:
            print(f"ATTRIBUTION SUM VIOLATION: {sum_violation}")
        print()
        print(render_table(flow_table(breakdowns)))
    return 0 if ok else 1


def show_timeline(args: argparse.Namespace) -> int:
    """Export the quickstart run as a Chrome trace-event (Perfetto) file."""
    from repro.telemetry.perfetto import (
        dump_chrome_trace, export_chrome_trace, validate_chrome_trace,
    )
    from repro.telemetry.spans import SpanBuilder

    _sim, records = quickstart_run(args.seed, args.packets)
    if args.list_flows:
        for tag in SpanBuilder(records).flows():
            print(tag)
        return 0
    doc = export_chrome_trace(records, flow=args.flow)
    if args.validate:
        counts = validate_chrome_trace(doc)
        print("validated: " + ", ".join(
            f"{counts.get(ph, 0)} {label}" for ph, label in
            (("X", "slices"), ("i", "instants"), ("M", "metadata"))),
            file=sys.stderr)
    serialized = dump_chrome_trace(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialized)
        print(f"wrote {len(doc['traceEvents'])} trace events to {args.out} "
              f"(open in ui.perfetto.dev)", file=sys.stderr)
    else:
        sys.stdout.write(serialized)
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    """Declare the four views on the ``repro.tools`` subparsers."""

    def view(name: str, handler: Any, help_: str,
             as_json: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=handler)
        p.add_argument("--seed", type=int, default=7,
                       help="simulator seed (default 7)")
        p.add_argument("--packets", type=int, default=10,
                       help="packets per phase (default 10)")
        if as_json:
            p.add_argument("--json", action="store_true",
                           help="machine-readable output")
        return p

    metrics = view("metrics", show_metrics,
                   "run the quickstart scenario and dump its metrics")
    metrics.add_argument("--filter", metavar="GLOB", dest="pattern",
                         help="only metrics matching this glob (matched "
                              "against the bare name and the name{labels} "
                              "form)")
    metrics.add_argument("--format", default="table",
                         choices=("table", "csv"),
                         help="output format (default table)")
    trace = view("trace", show_trace,
                 "run the quickstart scenario and print its trace tail")
    trace.add_argument("--tail", type=int, default=40,
                       help="records to print (default 40)")
    trace.add_argument("--out", metavar="PATH",
                       help="also write the retained records as JSONL")
    trace.add_argument("--since", type=float, metavar="T_US",
                       help="only records at/after this simulated time "
                            "(microseconds)")
    view("spans", show_spans,
         "run the quickstart scenario and verify packet-span completeness "
         "+ RTT attribution")
    timeline = view("timeline", show_timeline,
                    "export the quickstart scenario as a Chrome trace-event "
                    "(Perfetto) timeline", as_json=False)
    timeline.add_argument("flow", nargs="?",
                          help="restrict to one flow's causal closure (see "
                               "--list-flows)")
    timeline.add_argument("--out", metavar="PATH",
                          help="write the JSON document here (default: "
                               "stdout)")
    timeline.add_argument("--validate", action="store_true",
                          help="schema-check the document before writing it")
    timeline.add_argument("--list-flows", action="store_true",
                          dest="list_flows",
                          help="print the flow tags seen in the trace and "
                               "exit")
