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

Every other command is declared — flags and handler — by the package it
drives; :data:`OWNERS` names the module and :func:`build_parser` calls
its ``register(sub)``. The four demo views (``metrics``, ``trace``,
``spans``, ``timeline``) live in :mod:`repro.tools.demo`.
"""

from __future__ import annotations

import argparse
import importlib
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


#: Command -> the module whose ``register(sub)`` declares it: flags,
#: subcommands and the ``run`` handler ``main`` calls.
OWNERS: Dict[str, str] = {
    "list": "repro.tools.runner",
    "run": "repro.tools.runner",
    "bench": "repro.tools.runner",
    "metrics": "repro.tools.demo",
    "trace": "repro.tools.demo",
    "spans": "repro.tools.demo",
    "timeline": "repro.tools.demo",
    "chaos": "repro.chaos.cli",
    "fuzz": "repro.chaos.cli",
    "fastpath": "repro.fastpath.cli",
    "watch": "repro.observe.console",
    "shard": "repro.shard.cli",
    "verify": "repro.verify.cli",
}


def show_list(args: argparse.Namespace) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key, (_file, description) in EXPERIMENTS.items():
        print(f"{key.ljust(width)}  {description}")
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    """Declare ``list``, ``run`` and ``bench``, the runner's own commands."""
    sub.add_parser("list", help="show the experiment inventory") \
        .set_defaults(run=show_list)
    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.set_defaults(run=lambda args: run_experiment(args.experiment))
    run_parser.add_argument("experiment", metavar="experiment",
                            choices=[*EXPERIMENTS, "all"],
                            help="fig8..fig15, table1, table2, "
                                 "appc, ablation-*, or all")
    bench_parser = sub.add_parser(
        "bench", help="rerun one experiment and diff its tables against "
                      "the committed bench_results.txt/EXPERIMENTS.md "
                      "values (nonzero exit on drift)")
    bench_parser.set_defaults(run=lambda args: run_bench_diff(args.experiment))
    bench_parser.add_argument("experiment", metavar="experiment",
                              choices=list(EXPERIMENTS),
                              help="fig8..fig15, table1, table2, appc, "
                                   "or ablation-*")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``python -m repro.tools`` argument parser (construction only;
    ``tests/test_tools.py`` parses every documented command through it).

    Naming a ``command`` from :data:`OWNERS` imports and registers only
    its owner; anything else (``--help``, an unknown command, no
    argument) registers every owner."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    owners = [OWNERS[command]] if command in OWNERS else OWNERS.values()
    for module in dict.fromkeys(owners):
        importlib.import_module(module).register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    return args.run(args)
