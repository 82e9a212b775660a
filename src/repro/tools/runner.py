"""Experiment runner: regenerate any table or figure from the command line.

Usage::

    python -m repro.tools list              # inventory of experiments
    python -m repro.tools run fig8          # one experiment
    python -m repro.tools run all           # everything (slow)
    python -m repro.tools bench fig8        # rerun fig8, diff vs committed
    python -m repro.tools metrics           # telemetry snapshot of a demo run
    python -m repro.tools trace --tail 20   # trace tail of a demo run
    python -m repro.tools spans             # span completeness + attribution
    python -m repro.tools timeline --out t.json --validate  # Perfetto export
    python -m repro.tools timeline <flow>   # one flow's causal timeline
    python -m repro.tools chaos --list      # chaos campaign inventory
    python -m repro.tools chaos gray_link   # one chaos campaign + verdict
    python -m repro.tools chaos gray_link --heartbeat hb.ndjson  # + health stream
    python -m repro.tools fastpath          # fast-path cache statistics
    python -m repro.tools fastpath --diff   # on/off A/B identity + ratio
    python -m repro.tools watch hb.ndjson -f  # live campaign health console
    python -m repro.tools watch hb/heartbeat.*.ndjson -f  # merged shard view
    python -m repro.tools shard plan nat    # shard plan + worker assignment
    python -m repro.tools shard run nat_steady --workers 4  # sharded run
    python -m repro.tools shard diff nat_quickstart --workers 2  # identity

Each experiment is a pytest benchmark under ``benchmarks/``; the runner
invokes pytest with the right selection so the printed rows land on
stdout. This is the command EXPERIMENTS.md points at for every number it
quotes.

``metrics`` and ``trace`` run the quickstart scenario (SyncCounterApp on
the paper testbed, one flow, a switch failure and lease migration)
in-process and read the resulting :class:`~repro.telemetry.MetricRegistry`
/ :class:`~repro.telemetry.Tracer` — a one-command look at what the
telemetry spine records.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

#: Experiment id -> (benchmark file, one-line description).
EXPERIMENTS: Dict[str, tuple] = {
    "fig8": ("test_fig08_nat_latency.py",
             "RTT CDF: NAT under six implementations"),
    "fig9": ("test_fig09_app_latency.py",
             "RTT per RedPlane-enabled application"),
    "fig10": ("test_fig10_bandwidth.py",
              "replication bandwidth share per application"),
    "fig11": ("test_fig11_snapshot_bw.py",
              "snapshot bandwidth vs frequency and sketch count"),
    "fig12": ("test_fig12_throughput.py",
              "data-plane throughput with and without RedPlane"),
    "fig13": ("test_fig13_kv_update_ratio.py",
              "KV-store throughput vs update ratio and store count"),
    "fig14": ("test_fig14_failover.py",
              "TCP goodput during switch failover and recovery"),
    "fig15": ("test_fig15_buffer.py",
              "packet-buffer occupancy from request buffering"),
    "table1": ("test_table1_failure_impact.py",
               "failure impact per application, with and without RedPlane"),
    "table2": ("test_table2_resources.py",
               "ASIC resources used by RedPlane"),
    "appc": ("test_appc_model_check.py",
             "model checking the protocol spec"),
    "ablation-lease": ("test_ablation_lease.py",
                       "lease period vs recovery time"),
    "ablation-retransmit": ("test_ablation_retransmit.py",
                            "retransmission timeout under loss"),
    "ablation-piggyback": ("test_ablation_piggyback.py",
                           "piggybacking vs on-switch output buffering"),
    "netchain": ("test_netchain_store.py",
                 "RedPlane vs NetChain in-switch store: write-ack latency "
                 "and crash survival"),
}


def benchmarks_dir() -> str:
    """Locate the benchmarks directory relative to the repository root."""
    here = os.path.dirname(os.path.abspath(__file__))
    for candidate in (
        os.path.join(here, "..", "..", "..", "benchmarks"),
        os.path.join(os.getcwd(), "benchmarks"),
    ):
        path = os.path.normpath(candidate)
        if os.path.isdir(path):
            return path
    raise FileNotFoundError(
        "cannot locate the benchmarks/ directory; run from the repo root"
    )


def run_experiment(name: str, extra_args: Optional[List[str]] = None) -> int:
    """Run one experiment (or 'all'); returns the pytest exit code."""
    bench_dir = benchmarks_dir()
    if name == "all":
        targets = [os.path.join(bench_dir, f) for f, _ in EXPERIMENTS.values()]
    else:
        if name not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
            )
        targets = [os.path.join(bench_dir, EXPERIMENTS[name][0])]
    cmd = [sys.executable, "-m", "pytest", *targets,
           "--benchmark-only", "-q", "-s"]
    cmd.extend(extra_args or [])
    return subprocess.call(cmd)


def _parse_sections(text: str) -> Dict[str, List[str]]:
    """Split ``bench_results.txt``-style output into titled sections.

    A section is a ``print_header`` banner (a bar line, the title, a bar
    line) followed by everything up to the next banner. Returns
    title -> content lines (trailing blanks stripped).
    """
    lines = text.splitlines()
    sections: Dict[str, List[str]] = {}
    title: Optional[str] = None
    content: List[str] = []

    def flush() -> None:
        if title is not None:
            while content and not content[-1].strip():
                content.pop()
            sections[title] = list(content)

    i = 0
    while i < len(lines):
        line = lines[i]
        if (line and set(line) == {"="} and i + 2 < len(lines)
                and set(lines[i + 2]) == {"="}):
            flush()
            title = lines[i + 1]
            content = []
            i += 3
            continue
        if title is not None:
            content.append(line)
        i += 1
    flush()
    return sections


def run_bench_diff(name: str) -> int:
    """Rerun one experiment and diff its tables against the committed ones.

    The committed reference is ``bench_results.txt`` at the repository
    root — the machine-readable companion of EXPERIMENTS.md (every number
    EXPERIMENTS.md quotes comes from these tables). The experiment is
    rerun into a scratch file and each section it produces must match the
    committed section byte for byte; any drift prints a diff and exits
    nonzero. This is the guard that a change to the simulator did not
    silently move a published number.
    """
    import difflib
    import tempfile

    bench_dir = benchmarks_dir()
    committed_path = os.path.normpath(
        os.path.join(bench_dir, "..", "bench_results.txt"))
    try:
        with open(committed_path) as fh:
            committed = _parse_sections(fh.read())
    except OSError:
        print(f"no committed reference at {committed_path}", file=sys.stderr)
        return 2
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
        )
    fd, scratch = tempfile.mkstemp(suffix=".txt", prefix="repro-bench-")
    os.close(fd)
    try:
        env = dict(os.environ, REPRO_BENCH_RESULTS=scratch)
        cmd = [sys.executable, "-m", "pytest",
               os.path.join(bench_dir, EXPERIMENTS[name][0]),
               "--benchmark-only", "-q"]
        code = subprocess.call(cmd, env=env,
                               stdout=subprocess.DEVNULL)
        if code != 0:
            print(f"benchmark {name!r} itself failed (exit {code})",
                  file=sys.stderr)
            return code
        with open(scratch) as fh:
            fresh = _parse_sections(fh.read())
    finally:
        os.unlink(scratch)
    if not fresh:
        print(f"benchmark {name!r} emitted no tables", file=sys.stderr)
        return 2
    drift = False
    for title, lines in fresh.items():
        if title not in committed:
            print(f"DRIFT: section {title!r} is not in the committed "
                  f"reference", file=sys.stderr)
            drift = True
            continue
        if lines != committed[title]:
            drift = True
            print(f"DRIFT in {title!r}:")
            sys.stdout.writelines(difflib.unified_diff(
                committed[title], lines, fromfile="committed",
                tofile="regenerated", lineterm=""))
            print()
        else:
            print(f"ok: {title}")
    if drift:
        print("\nbench diff: DRIFT — regenerated tables differ from the "
              "committed bench_results.txt/EXPERIMENTS.md values")
        return 1
    print("\nbench diff: clean — regenerated tables match the committed "
          "values")
    return 0


def run_fastpath(flows: int, packets: int, seed: int,
                 diff: bool, as_json: bool) -> int:
    """Fast-path statistics, or an on/off A/B identity + speedup check,
    on the registry's ``nat_steady`` scenario run in one process."""
    from repro import identity
    from repro.shard.runner import resolve, run_reference

    def run(fastpath: bool) -> dict:
        result = run_reference(resolve(
            "nat_steady", 1, seed=seed, fastpath=fastpath,
            params={"flows": flows, "packets_per_flow": packets}))
        result["packets"] = result["extra"]["packets"]
        result["packets_per_s"] = result["packets"] / result["wall_s"]
        return result

    try:
        off = run(False) if diff else None
        on = run(True)
    except ValueError as exc:
        print(f"fastpath: {exc}", file=sys.stderr)
        return 2
    if diff:
        report = identity.compare(off, on)
        identical = all(report.values())
        speedup = on["packets_per_s"] / off["packets_per_s"]
        if as_json:
            for result in (off, on):
                del result["metrics"]  # compared above; too big to print
            print(json.dumps({
                "off": off, "on": on, "identity": report,
                "identical": identical, "speedup_same_scenario": speedup,
            }, indent=2, sort_keys=True))
        else:
            print(f"reference : {off['packets_per_s']:>10.1f} pkt/s "
                  f"({off['packets']} packets, {off['events']} events)")
            print(f"fast path : {on['packets_per_s']:>10.1f} pkt/s "
                  f"({on['packets']} packets, {on['events']} events)")
            print(f"speedup   : {speedup:.2f}x same-scenario")
            for axis, same in report.items():
                print(f"identity  : {axis:<16s} "
                      f"{'identical' if same else 'DIVERGED'}")
        if not identical:
            print("fast path DIVERGED from the reference path",
                  file=sys.stderr)
            return 1
        return 0
    stats = on["extra"]["fastpath_stats"]
    if as_json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    flow = stats["flow_cache"]
    total = flow["hits"] + flow["misses"]
    print(f"throughput : {on['packets_per_s']:.1f} pkt/s "
          f"({on['packets']} packets, {on['events']} events)")
    print(f"flow cache : {flow['hits']} hits / {flow['misses']} misses "
          f"({100.0 * flow['hits'] / total if total else 0.0:.1f}% hit), "
          f"{flow['entries']} entries")
    for switch, per in sorted(flow["per_switch"].items()):
        print(f"  {switch:<9s}: {per['hits']} hits / {per['misses']} "
              f"misses, {per['entries']} entries")
    print("invalidations: " + ", ".join(
        f"{scope}={count}" for scope, count in
        sorted(stats["invalidations"].items())) )
    return 0


def demo_run(seed: int = 7, packets: int = 10, fail_owner: bool = True,
             trace_path: Optional[str] = None):
    """Run the quickstart scenario in-process; returns the simulator.

    Deploys :class:`~repro.apps.counter.SyncCounterApp` on the paper
    testbed, pushes one flow through it, optionally fails the owning
    switch (exercising lease migration and store traffic), then asks each
    engine to publish its resource gauges — so the registry ends up with
    a representative population of counters, gauges, and histograms.
    ``trace_path`` streams the full record stream to a JSONL sink (the
    ring can truncate; the sink cannot).
    """
    from repro import Simulator, deploy
    from repro.apps.counter import SyncCounterApp
    from repro.net.packet import Packet

    sim = Simulator(seed=seed)
    if trace_path is not None:
        sim.tracer.open_sink(trace_path)
    dep = deploy(sim, SyncCounterApp)
    sender = dep.bed.externals[0]
    receiver = dep.bed.servers[0]

    def send_packet() -> None:
        sender.send(Packet.udp(sender.ip, receiver.ip, 5555, 7777))

    for i in range(packets):
        sim.schedule(i * 200.0, send_packet)
    sim.run_until_idle()

    if fail_owner:
        owner = max(dep.engines.values(),
                    key=lambda e: e.stats["app_packets"])
        dep.bed.topology.fail_node(owner.switch)
        sim.run(until=sim.now + 400_000)
        for i in range(packets):
            sim.schedule(i * 200.0, send_packet)
        sim.run_until_idle()

    for engine in dep.engines.values():
        engine.resource_usage()
    if trace_path is not None:
        sim.tracer.close_sink()
    return sim


def _filter_snapshot(snap: Dict[str, Dict[str, object]],
                     pattern: str) -> Dict[str, Dict[str, object]]:
    """Keep metrics whose name (with or without labels) matches the glob."""
    import fnmatch

    def keep(ident: str) -> bool:
        return (fnmatch.fnmatchcase(ident, pattern)
                or fnmatch.fnmatchcase(ident.split("{", 1)[0], pattern))

    return {section: {k: v for k, v in entries.items() if keep(k)}
            for section, entries in snap.items()}


def show_metrics(seed: int, packets: int, as_json: bool,
                 pattern: Optional[str] = None, fmt: str = "table") -> int:
    import csv

    sim = demo_run(seed=seed, packets=packets)
    snap = sim.metrics.snapshot()
    if pattern:
        snap = _filter_snapshot(snap, pattern)
    if as_json:
        print(json.dumps(snap, indent=2, sort_keys=True))
        return 0
    if fmt == "csv":
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
        return 0
    if pattern:
        # Render only the filtered keys: rebuild the sections by hand
        # (MetricRegistry.render reads the live registry).
        lines = []
        for section in ("counters", "gauges", "histograms"):
            entries = snap[section]
            lines.append(f"{section} ({len(entries)}):")
            for ident, value in entries.items():
                if isinstance(value, dict):
                    detail = "  ".join(f"{k}={v:.2f}"
                                       for k, v in value.items())
                    lines.append(f"  {ident}  {detail}")
                else:
                    lines.append(f"  {ident} = {value:g}")
        print("\n".join(lines))
    else:
        print(sim.metrics.render())
    return 0


def show_trace(seed: int, packets: int, tail: int, as_json: bool,
               out: Optional[str], since: Optional[float] = None) -> int:
    sim = demo_run(seed=seed, packets=packets)
    if out:
        written = sim.tracer.flush_to(out)
        print(f"wrote {written} records to {out}", file=sys.stderr)
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
        if as_json:
            print(record.to_json())
        else:
            fields = " ".join(f"{k}={v}" for k, v in record.fields.items())
            print(f"{record.ts:14.3f}  {record.type:<16s}  {fields}")
    return 0


def _demo_records(seed: int, packets: int):
    """Quickstart run with a complete (sink-backed) record stream."""
    import tempfile

    from repro.telemetry.trace import read_jsonl

    fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="repro-trace-")
    os.close(fd)
    try:
        sim = demo_run(seed=seed, packets=packets, trace_path=path)
        return sim, read_jsonl(path)
    finally:
        os.unlink(path)


def show_spans(seed: int, packets: int, as_json: bool) -> int:
    """Span completeness + latency attribution over the quickstart run."""
    from repro.analysis.attribution import (
        attribute_acks, flow_table, render_table, verify_sums,
    )
    from repro.telemetry.spans import SpanBuilder

    _sim, records = _demo_records(seed, packets)
    builder = SpanBuilder(records)
    report = builder.verify()
    breakdowns = attribute_acks(records)
    sum_violation = verify_sums(breakdowns)
    status_counts: Dict[str, int] = {}
    for span in builder.spans.values():
        status = span.status
        status_counts[status] = status_counts.get(status, 0) + 1
    ok = report.ok and sum_violation is None
    if as_json:
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


def show_timeline(flow: Optional[str], seed: int, packets: int,
                  out: Optional[str], validate: bool,
                  list_flows: bool) -> int:
    """Export the quickstart run as a Chrome trace-event (Perfetto) file."""
    from repro.telemetry.perfetto import (
        dump_chrome_trace, export_chrome_trace, validate_chrome_trace,
    )
    from repro.telemetry.spans import SpanBuilder

    _sim, records = _demo_records(seed, packets)
    if list_flows:
        for tag in SpanBuilder(records).flows():
            print(tag)
        return 0
    doc = export_chrome_trace(records, flow=flow)
    if validate:
        counts = validate_chrome_trace(doc)
        print("validated: " + ", ".join(
            f"{counts.get(ph, 0)} {label}" for ph, label in
            (("X", "slices"), ("i", "instants"), ("M", "metadata"))),
            file=sys.stderr)
    serialized = dump_chrome_trace(doc)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(serialized)
        print(f"wrote {len(doc['traceEvents'])} trace events to {out} "
              f"(open in ui.perfetto.dev)", file=sys.stderr)
    else:
        sys.stdout.write(serialized)
    return 0


def run_chaos(campaign: Optional[str], seed: int, as_json: bool,
              out: Optional[str], check_determinism: bool,
              list_campaigns: bool, trace: Optional[str] = None,
              heartbeat: Optional[str] = None) -> int:
    """Run one chaos campaign; exit nonzero on FAIL or a verdict mismatch.

    ``heartbeat`` streams the run's NDJSON health snapshots to that path
    (first run only; view with ``repro.tools watch``)."""
    from repro.chaos import CAMPAIGNS, render_report, run_campaign, \
        verdict_json
    from repro.observe import ObserveOptions

    if list_campaigns or campaign is None:
        width = max(len(name) for name in CAMPAIGNS)
        for name, c in CAMPAIGNS.items():
            print(f"{name.ljust(width)}  {c.description}")
        return 0
    report = run_campaign(campaign, seed=seed, trace_path=trace,
                          observe=ObserveOptions(heartbeat_path=heartbeat))
    serialized = verdict_json(report)
    if heartbeat:
        print(f"wrote heartbeats to {heartbeat} (view with: python -m "
              f"repro.tools watch {heartbeat})", file=sys.stderr)
    if trace:
        print(f"wrote {report['trace']['records_emitted']} trace records "
              f"to {trace}", file=sys.stderr)
    dropped = report["trace"]["records_dropped"]
    if dropped:
        print(f"WARNING: trace ring truncated {dropped} records"
              + ("" if trace else
                 "; pass --trace PATH for the complete stream"),
              file=sys.stderr)
    if check_determinism:
        repeat = verdict_json(run_campaign(campaign, seed=seed))
        if repeat != serialized:
            print(f"NONDETERMINISTIC: two seed={seed} runs of "
                  f"{campaign!r} produced different verdict reports",
                  file=sys.stderr)
            return 2
        print(f"determinism: two seed={seed} runs byte-identical",
              file=sys.stderr)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(serialized)
        print(f"wrote verdict report to {out}", file=sys.stderr)
    print(serialized if as_json else render_report(report))
    return 0 if report["verdict"] == "PASS" else 1


def run_watch(paths: List[str], follow: bool,
              max_lines: Optional[int]) -> int:
    """Tail/render heartbeat NDJSON file(s) (``repro.tools watch``).

    Several files (a sharded campaign's per-worker heartbeats) merge
    into one labeled console."""
    from repro.observe.console import watch

    return watch(paths if len(paths) > 1 else paths[0],
                 follow=follow, max_lines=max_lines)


# -- shard CLI ----------------------------------------------------------------


def _shard_assignment_table(plan: dict, workers: int) -> str:
    """Which worker owns what, for ``repro.tools shard plan``."""
    from repro.shard.plan import shardability

    lines: List[str] = []
    shardable, reason = shardability(plan)
    lines.append(f"workers: {workers}")
    if shardable:
        fields = ", ".join(plan["partition_key"]["fields"])
        lines.append(f"  flow shards : hash(flow key [{fields}]) % "
                     f"{workers} -> owner worker")
    else:
        lines.append(f"  pinned      : all flows on worker 0 ({reason})")
    for entry in plan["structures"]:
        if shardable and entry["partition_class"] in (
            "flow_local", "flow_hash"
        ):
            where = f"worker of owning flow (0..{workers - 1})"
        else:
            where = "worker 0 (global residue)"
        lines.append(f"  {entry['name']:<28} -> {where}")
    residue = plan["global_residue"]
    if residue:
        lines.append(f"  global residue pinned to worker 0: "
                     f"{', '.join(residue)}")
    lines.append(f"  state store : replicated chain on every worker "
                 f"(shared events run in lockstep)")
    return "\n".join(lines)


def run_shard_plan(app: str, workers: int, as_json: bool) -> int:
    """``repro.tools shard plan <app>``: assignment table or --json."""
    from repro.shard.plan import PlanError, check_conformance
    from repro.verify.partition_pass import plan_json, render_plan

    try:
        plan = check_conformance(app)
    except PlanError as exc:
        print(f"shard plan: {exc}", file=sys.stderr)
        return 2
    if as_json:
        print(plan_json(plan), end="")
        return 0
    print(render_plan(plan))
    print(_shard_assignment_table(plan, workers))
    return 0


def _merged_summary(merged: dict) -> dict:
    """JSON-safe summary of a merged shard run (drops record objects)."""
    return {k: v for k, v in merged.items() if k != "records"}


def run_shard_run(args: "argparse.Namespace") -> int:
    """``repro.tools shard run <scenario> --workers N``."""
    from repro.shard.runner import resolve, run_sharded

    config = resolve(
        args.scenario, args.workers, seed=args.seed,
        fastpath=args.fastpath, capture=not args.no_capture,
        heartbeat_dir=args.heartbeat_dir,
    )
    merged = run_sharded(config, mode=args.mode)
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        path = os.path.join(args.save, "merged.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_merged_summary(merged), fh, indent=2,
                      sort_keys=True, default=str)
        print(f"merged result -> {path}", file=sys.stderr)
    if args.json:
        print(json.dumps(_merged_summary(merged), indent=2,
                         sort_keys=True, default=str))
        return 0
    print(f"scenario    : {merged['scenario']} (app {merged['app']}, "
          f"seed {merged['seed']})")
    print(f"workers     : {merged['num_shards']} ({merged['mode']})"
          + (f", PINNED: {merged['pin_reason']}" if merged["pinned"] else ""))
    print(f"events      : {merged['events']:,}")
    print(f"records     : {merged['records_emitted']:,}")
    print(f"flows/shard : {merged['flows_per_shard']}")
    print(f"wall/shard  : "
          + ", ".join(f"{w:.2f}s" for w in merged["wall_s_per_shard"])
          + f" (ghost {merged['wall_s_ghost']:.2f}s)")
    if "trace_digest" in merged:
        print(f"trace digest: {merged['trace_digest']}")
    print(f"rng draws   : {merged['rng_draws']}")
    return 0


def run_shard_diff(args: "argparse.Namespace") -> int:
    """``repro.tools shard diff <scenario>``: A/B vs the reference."""
    from repro.shard.runner import run_identity

    out = run_identity(
        args.scenario, workers=args.workers, mode=args.mode,
        fastpath=args.fastpath,
    )
    report = out["report"]
    width = max(len(k) for k in report)
    for axis, same in report.items():
        print(f"{axis.ljust(width)} : {'identical' if same else 'DIFFERS'}")
    verdict = "IDENTICAL" if out["identical"] else "DIFFERS"
    print(f"{'verdict'.ljust(width)} : {verdict} "
          f"({args.workers} shard(s), {args.mode} mode, vs reference)")
    return 0 if out["identical"] else 1


def run_shard_cli(args: "argparse.Namespace") -> int:
    if args.shard_command == "plan":
        return run_shard_plan(args.app, args.workers, args.json)
    if args.shard_command == "run":
        return run_shard_run(args)
    if args.shard_command == "diff":
        return run_shard_diff(args)
    print("shard: give a subcommand (plan/run/diff)", file=sys.stderr)
    return 2


def run_fuzz_cli(args: "argparse.Namespace") -> int:
    """Dispatch ``repro.tools fuzz run|self-check|shrink|replay``."""
    from repro.chaos.fuzz import (
        ScheduleSpec,
        mutation_self_check,
        regression_payload,
        replay_regression,
        run_fuzz,
    )
    from repro.chaos.scorecard import Scorecard
    from repro.chaos.shrink import shrink_spec
    from repro.model.witness import ViolationWitness

    def emit(msg: str) -> None:
        print(msg, file=sys.stderr)

    if args.fuzz_command == "run":
        report = run_fuzz(args.seed, args.budget, bug=args.mutation,
                          shrink_budget=args.shrink_budget,
                          shrink_violations=not args.no_shrink, log=emit)
        violations = report["violations"]
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            for entry in violations:
                payload = regression_payload(entry, args.seed, args.mutation)
                path = os.path.join(
                    args.out_dir,
                    f"fuzz-s{args.seed}-i{entry['index']}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                emit(f"wrote reproducer {path}")
        if args.scorecard:
            with open(args.scorecard, "w", encoding="utf-8") as fh:
                json.dump(report["scorecard"], fh, indent=1, sort_keys=True)
                fh.write("\n")
            emit(f"wrote scorecard {args.scorecard}")
        if args.json:
            print(json.dumps(report, indent=1, sort_keys=True))
        else:
            print(Scorecard.render_dict(report["scorecard"]))
            print(f"{report['schedules_run']} schedules, "
                  f"{len(violations)} violation(s)")
        return 1 if violations else 0

    if args.fuzz_command == "self-check":
        report = mutation_self_check(
            seed=args.seed, budget=args.budget, bug=args.bug,
            shrink_budget=args.shrink_budget,
            max_minimal_faults=args.max_minimal_faults, log=emit)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
                fh.write("\n")
            emit(f"wrote self-check report {args.out}")
        if args.json:
            print(json.dumps(report, indent=1, sort_keys=True))
        elif report["ok"]:
            print(f"self-check OK: mutation {report['mutation']!r} found at "
                  f"schedule {report['found_index']} and shrunk to "
                  f"{report['minimal_faults']} fault(s); clean sweep green")
        else:
            print(f"self-check FAILED: {report.get('reason')}")
        return 0 if report["ok"] else 1

    if args.fuzz_command == "shrink":
        with open(args.file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        spec = ScheduleSpec.from_dict(payload["spec"])
        witness = ViolationWitness.from_dict(payload["witness"])
        bug = payload.get("fuzzer", {}).get("mutation")
        shrunk = shrink_spec(spec, witness, bug=bug, budget=args.budget)
        emit(f"shrunk {len(spec.faults)} -> {len(shrunk.spec.faults)} "
             f"fault(s) in {shrunk.runs_used} oracle runs")
        payload["spec"] = shrunk.spec.to_dict()
        payload["witness"] = shrunk.witness.to_dict()
        out = args.out or args.file
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        emit(f"wrote {out}")
        for fault in shrunk.spec.faults:
            print(fault.describe())
        return 0

    # replay
    failures = 0
    for path in args.files:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        outcome = replay_regression(payload)
        expect = args.expect
        if expect == "auto":
            # A reproducer minted under a seeded bug documents detection
            # power and must still reproduce; one recorded against the
            # real protocol must stay clean once the bug is fixed.
            expect = "reproduce" if outcome["mutation"] else "clean"
        reproduces = outcome["reproduces"]
        ok = reproduces if expect == "reproduce" else not reproduces
        status = "ok" if ok else "UNEXPECTED"
        kinds = outcome["replayed_witness"]["kinds"]
        print(f"{path}: expect={expect} reproduces={reproduces} "
              f"kinds={kinds} [{status}]")
        if args.json:
            print(json.dumps(outcome, indent=1, sort_keys=True))
        failures += 0 if ok else 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.tools`` argument parser (construction only;
    ``tests/test_tools.py`` parses every documented command through it)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="show the experiment inventory")
    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", help="fig8..fig15, table1, table2, "
                                               "appc, ablation-*, or all")
    bench_parser = sub.add_parser(
        "bench", help="rerun one experiment and diff its tables against "
                      "the committed bench_results.txt/EXPERIMENTS.md "
                      "values (nonzero exit on drift)")
    bench_parser.add_argument("experiment",
                              help="fig8..fig15, table1, table2, appc, "
                                   "or ablation-*")
    fastpath_parser = sub.add_parser(
        "fastpath", help="run the NAT steady-state scenario with the "
                         "fast path and print cache statistics")
    fastpath_parser.add_argument("--diff", action="store_true",
                                 help="also run the reference path and "
                                      "check bit-identity + speedup; "
                                      "nonzero exit on divergence")
    fastpath_parser.add_argument("--flows", type=int, default=50,
                                 help="concurrent NAT flows (default 50)")
    fastpath_parser.add_argument("--packets", type=int, default=400,
                                 help="packets per flow (default 400)")
    fastpath_parser.add_argument("--seed", type=int, default=5,
                                 help="simulator seed (default 5)")
    fastpath_parser.add_argument("--json", action="store_true",
                                 help="machine-readable output")
    metrics_parser = sub.add_parser(
        "metrics", help="run the quickstart scenario and dump its metrics")
    trace_parser = sub.add_parser(
        "trace", help="run the quickstart scenario and print its trace tail")
    for p in (metrics_parser, trace_parser):
        p.add_argument("--seed", type=int, default=7,
                       help="simulator seed (default 7)")
        p.add_argument("--packets", type=int, default=10,
                       help="packets per phase (default 10)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
    metrics_parser.add_argument("--filter", metavar="GLOB", dest="pattern",
                                help="only metrics matching this glob "
                                     "(matched against the bare name and "
                                     "the name{labels} form)")
    metrics_parser.add_argument("--format", default="table",
                                choices=("table", "csv"),
                                help="output format (default table)")
    trace_parser.add_argument("--tail", type=int, default=40,
                              help="records to print (default 40)")
    trace_parser.add_argument("--out", metavar="PATH",
                              help="also write the retained records as JSONL")
    trace_parser.add_argument("--since", type=float, metavar="T_US",
                              help="only records at/after this simulated "
                                   "time (microseconds)")
    watch_parser = sub.add_parser(
        "watch", help="render a campaign's heartbeat NDJSON stream as a "
                      "live health console")
    watch_parser.add_argument("file", nargs="+",
                              help="heartbeat NDJSON file(s); several "
                                   "files (a sharded run's per-worker "
                                   "heartbeats) merge into one labeled "
                                   "console")
    watch_parser.add_argument("-f", "--follow", action="store_true",
                              help="keep tailing as the files grow")
    watch_parser.add_argument("--max-lines", type=int, dest="max_lines",
                              help="stop after N snapshots")
    shard_parser = sub.add_parser(
        "shard", help="sharded parallel simulation: plan / run / diff")
    shard_sub = shard_parser.add_subparsers(dest="shard_command")
    shard_plan = shard_sub.add_parser(
        "plan", help="render an app's committed shard plan + worker "
                     "assignment table")
    shard_plan.add_argument("app", help="app name (e.g. nat, sync_counter)")
    shard_plan.add_argument("--workers", type=int, default=2,
                            help="worker count for the assignment table "
                                 "(default 2)")
    shard_plan.add_argument("--json", action="store_true",
                            help="emit the raw plan JSON (same renderer "
                                 "as verify --emit-plans)")
    shard_run = shard_sub.add_parser(
        "run", help="run a scenario sharded across N workers and merge")
    shard_run.add_argument("scenario",
                           help="scenario name (see repro.shard.scenarios)")
    shard_run.add_argument("--workers", type=int, default=2)
    shard_run.add_argument("--seed", type=int, default=None,
                           help="override the scenario's default seed")
    shard_run.add_argument("--mode", choices=("inline", "process"),
                           default="inline",
                           help="inline (sequential, one process) or "
                                "process (spawned workers, framed sync)")
    shard_run.add_argument("--fastpath", action="store_true",
                           help="install the fast path in every shard")
    shard_run.add_argument("--no-capture", action="store_true",
                           help="skip record capture (throughput runs; "
                                "merge reports counts only)")
    shard_run.add_argument("--heartbeat-dir", dest="heartbeat_dir",
                           help="write per-shard heartbeat NDJSON files "
                                "here (view with 'watch DIR/*.ndjson -f')")
    shard_run.add_argument("--save", help="write the merged summary JSON "
                                          "into this directory")
    shard_run.add_argument("--json", action="store_true",
                           help="machine-readable merged summary")
    shard_diff = shard_sub.add_parser(
        "diff", help="byte-identity gate: N-shard merged run vs the "
                     "single-process reference")
    shard_diff.add_argument("scenario")
    shard_diff.add_argument("--workers", type=int, default=2)
    shard_diff.add_argument("--mode", choices=("inline", "process"),
                            default="inline")
    shard_diff.add_argument("--fastpath", action="store_true")
    spans_parser = sub.add_parser(
        "spans", help="run the quickstart scenario and verify packet-span "
                      "completeness + RTT attribution")
    timeline_parser = sub.add_parser(
        "timeline", help="export the quickstart scenario as a Chrome "
                         "trace-event (Perfetto) timeline")
    for p in (spans_parser, timeline_parser):
        p.add_argument("--seed", type=int, default=7,
                       help="simulator seed (default 7)")
        p.add_argument("--packets", type=int, default=10,
                       help="packets per phase (default 10)")
    spans_parser.add_argument("--json", action="store_true",
                              help="machine-readable output")
    timeline_parser.add_argument("flow", nargs="?",
                                 help="restrict to one flow's causal "
                                      "closure (see --list-flows)")
    timeline_parser.add_argument("--out", metavar="PATH",
                                 help="write the JSON document here "
                                      "(default: stdout)")
    timeline_parser.add_argument("--validate", action="store_true",
                                 help="schema-check the document before "
                                      "writing it")
    timeline_parser.add_argument("--list-flows", action="store_true",
                                 dest="list_flows",
                                 help="print the flow tags seen in the "
                                      "trace and exit")
    verify_parser = sub.add_parser(
        "verify", help="static analysis: pipeline constraints, determinism "
                       "lint, telemetry schema (see docs/VERIFY.md)")
    verify_parser.add_argument("paths", nargs="*",
                               help="files/directories for the tree lints "
                                    "(default: the repro source tree)")
    verify_parser.add_argument("--all", action="store_true",
                               dest="all_targets",
                               help="verify every builtin app's deployed "
                                    "pipeline plus the whole source tree")
    verify_parser.add_argument("--app", metavar="NAME",
                               help="verify one builtin app's pipeline")
    verify_parser.add_argument("--json", action="store_true",
                               help="print the JSON report")
    verify_parser.add_argument("--out", metavar="PATH",
                               help="also write the JSON report here")
    verify_parser.add_argument("--strict", action="store_true",
                               help="fail on warnings too, not just errors")
    verify_parser.add_argument("--rule", metavar="ID[,ID]", dest="rules",
                               help="report only these rule ids (plus "
                                    "QA001/QA002 suppression hygiene)")
    verify_parser.add_argument("--baseline", metavar="PATH", nargs="?",
                               const="", dest="baseline",
                               help="fail only on per-rule count "
                                    "regressions vs this baseline "
                                    "(default: verify_baseline.json)")
    verify_parser.add_argument("--write-baseline", metavar="PATH",
                               nargs="?", const="", dest="write_baseline",
                               help="snapshot current per-rule counts "
                                    "(default: verify_baseline.json)")
    verify_parser.add_argument("--plan", action="store_true",
                               dest="show_plans",
                               help="render the per-app shard plans the "
                                    "partition pass computed")
    verify_parser.add_argument("--emit-plans", metavar="DIR",
                               dest="emit_plans",
                               help="write canonical shard_plan JSON for "
                                    "every analyzed app into DIR")
    chaos_parser = sub.add_parser(
        "chaos", help="run a fault-injection campaign with invariant "
                      "auditing and print its verdict report")
    chaos_parser.add_argument("campaign", nargs="?",
                              help="campaign name (omit with --list)")
    chaos_parser.add_argument("--list", action="store_true",
                              dest="list_campaigns",
                              help="show the campaign inventory")
    chaos_parser.add_argument("--seed", type=int, default=42,
                              help="simulator seed (default 42)")
    chaos_parser.add_argument("--json", action="store_true",
                              help="print the raw verdict report JSON")
    chaos_parser.add_argument("--out", metavar="PATH",
                              help="also write the verdict report JSON")
    chaos_parser.add_argument("--check-determinism", action="store_true",
                              help="run twice and require byte-identical "
                                   "verdict reports")
    chaos_parser.add_argument("--trace", metavar="PATH",
                              help="stream the full trace record stream "
                                   "to PATH as JSONL (first run only)")
    chaos_parser.add_argument("--heartbeat", metavar="PATH",
                              help="stream NDJSON health heartbeats to "
                                   "PATH (first run only; view with "
                                   "'watch')")
    fuzz_parser = sub.add_parser(
        "fuzz", help="seeded fault-schedule fuzzing: randomized schedules, "
                     "automatic shrinking, resilience scorecard")
    fuzz_sub = fuzz_parser.add_subparsers(dest="fuzz_command", required=True)
    fuzz_run = fuzz_sub.add_parser(
        "run", help="fuzz a budget of schedules and shrink every violation")
    fuzz_run.add_argument("--seed", type=int, default=5,
                          help="fuzzer seed (default 5)")
    fuzz_run.add_argument("--budget", type=int, default=24,
                          help="schedules to generate (default 24)")
    fuzz_run.add_argument("--mutation", metavar="NAME",
                          help="enable a seeded bug from repro.mutation "
                               "for every run")
    fuzz_run.add_argument("--shrink-budget", type=int, default=80,
                          dest="shrink_budget",
                          help="oracle runs per shrink (default 80)")
    fuzz_run.add_argument("--no-shrink", action="store_true",
                          dest="no_shrink",
                          help="report violations without minimizing them")
    fuzz_run.add_argument("--out-dir", metavar="DIR", dest="out_dir",
                          help="write one replayable regression file per "
                               "violation into DIR")
    fuzz_run.add_argument("--scorecard", metavar="PATH",
                          help="write the resilience scorecard JSON here")
    fuzz_run.add_argument("--json", action="store_true",
                          help="print the full fuzz report JSON")
    fuzz_check = fuzz_sub.add_parser(
        "self-check", help="mutation-test the fuzzer: a seeded bug must be "
                           "found, shrunk, and vanish when disabled")
    fuzz_check.add_argument("--seed", type=int, default=5,
                            help="fuzzer seed (default 5)")
    fuzz_check.add_argument("--budget", type=int, default=24,
                            help="schedules per sweep (default 24)")
    fuzz_check.add_argument("--bug", default="skip_hold_dedup",
                            help="seeded bug to plant "
                                 "(default skip_hold_dedup)")
    fuzz_check.add_argument("--shrink-budget", type=int, default=80,
                            dest="shrink_budget",
                            help="oracle runs for the shrink (default 80)")
    fuzz_check.add_argument("--max-minimal-faults", type=int, default=3,
                            dest="max_minimal_faults",
                            help="largest acceptable minimized reproducer "
                                 "(default 3)")
    fuzz_check.add_argument("--out", metavar="PATH",
                            help="also write the self-check report JSON")
    fuzz_check.add_argument("--json", action="store_true",
                            help="print the self-check report JSON")
    fuzz_shrink = fuzz_sub.add_parser(
        "shrink", help="re-shrink a saved regression file in place")
    fuzz_shrink.add_argument("file", help="chaos-fuzz-regression JSON file")
    fuzz_shrink.add_argument("--budget", type=int, default=80,
                             help="oracle runs (default 80)")
    fuzz_shrink.add_argument("--out", metavar="PATH",
                             help="write here instead of in place")
    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="replay regression files and check their witnesses "
                       "still (or no longer) reproduce")
    fuzz_replay.add_argument("files", nargs="+",
                             help="chaos-fuzz-regression JSON files")
    fuzz_replay.add_argument("--expect", default="auto",
                             choices=("auto", "reproduce", "clean"),
                             help="auto: mutation-recorded files must "
                                  "reproduce, real-protocol files must be "
                                  "clean (default)")
    fuzz_replay.add_argument("--json", action="store_true",
                             help="print each replay outcome JSON")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for key, (_file, description) in EXPERIMENTS.items():
            print(f"{key.ljust(width)}  {description}")
        return 0
    if args.command == "metrics":
        return show_metrics(args.seed, args.packets, args.json,
                            args.pattern, args.format)
    if args.command == "trace":
        return show_trace(args.seed, args.packets, args.tail, args.json,
                          args.out, args.since)
    if args.command == "watch":
        return run_watch(args.file, args.follow, args.max_lines)
    if args.command == "shard":
        return run_shard_cli(args)
    if args.command == "spans":
        return show_spans(args.seed, args.packets, args.json)
    if args.command == "timeline":
        return show_timeline(args.flow, args.seed, args.packets, args.out,
                             args.validate, args.list_flows)
    if args.command == "verify":
        from repro.verify.cli import default_baseline_path, run_verify

        baseline = args.baseline
        if baseline == "":
            baseline = default_baseline_path()
        write_baseline = args.write_baseline
        if write_baseline == "":
            write_baseline = default_baseline_path()
        return run_verify(args.paths, args.all_targets, args.app,
                          args.json, args.out, args.strict,
                          rules=args.rules, baseline=baseline,
                          write_baseline=write_baseline,
                          show_plans=args.show_plans,
                          emit_plans=args.emit_plans)
    if args.command == "chaos":
        return run_chaos(args.campaign, args.seed, args.json, args.out,
                         args.check_determinism, args.list_campaigns,
                         args.trace, args.heartbeat)
    if args.command == "fuzz":
        return run_fuzz_cli(args)
    if args.command == "bench":
        return run_bench_diff(args.experiment)
    if args.command == "fastpath":
        return run_fastpath(args.flows, args.packets, args.seed,
                            args.diff, args.json)
    return run_experiment(args.experiment)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
