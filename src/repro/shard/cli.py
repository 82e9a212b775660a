"""``repro.tools shard plan | run | diff``: the one declaration of their
flags (:func:`register`) and their handlers."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, List


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


def run_shard_plan(args: argparse.Namespace) -> int:
    """``repro.tools shard plan <app>``: assignment table or --json."""
    from repro.shard.plan import PlanError, check_conformance
    from repro.verify.partition_pass import plan_json, render_plan

    try:
        plan = check_conformance(args.app)
    except PlanError as exc:
        print(f"shard plan: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(plan_json(plan), end="")
        return 0
    print(render_plan(plan))
    print(_shard_assignment_table(plan, args.workers))
    return 0


def _unknown_scenario(args: argparse.Namespace) -> bool:
    """Name the registry on stderr when ``args.scenario`` is not in it."""
    from repro.scenarios import get_scenario

    try:
        get_scenario(args.scenario)
    except KeyError as exc:
        print(f"shard {args.shard_command}: {exc.args[0]}", file=sys.stderr)
        return True
    return False


def _merged_summary(merged: dict) -> dict:
    """JSON-safe summary of a merged shard run (drops record objects)."""
    return {k: v for k, v in merged.items() if k != "records"}


def _merge_refusal_exits_2(handler: Callable[[argparse.Namespace], int]):
    """A merge refusal is the run's answer, not a crash: one stderr
    line and exit 2 (exit 1 is ``shard diff``'s DIFFERS)."""
    def run(args: argparse.Namespace) -> int:
        from repro.shard.merge import MergeError

        try:
            return handler(args)
        except MergeError as exc:
            print(f"shard {args.shard_command}: cannot merge: {exc}",
                  file=sys.stderr)
            return 2
    return run


@_merge_refusal_exits_2
def run_shard_run(args: argparse.Namespace) -> int:
    """``repro.tools shard run <scenario> --workers N``."""
    from repro.shard.runner import resolve, run_sharded

    if _unknown_scenario(args):
        return 2
    config = resolve(
        args.scenario, args.workers, seed=args.seed,
        capture=not args.no_capture, heartbeat_dir=args.heartbeat_dir,
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


@_merge_refusal_exits_2
def run_shard_diff(args: argparse.Namespace) -> int:
    """``repro.tools shard diff <scenario>``: A/B vs the reference."""
    from repro.shard.runner import run_identity

    if _unknown_scenario(args):
        return 2
    out = run_identity(args.scenario, workers=args.workers, mode=args.mode)
    report = out["report"]
    width = max(len(k) for k in report)
    for axis, same in report.items():
        print(f"{axis.ljust(width)} : {'identical' if same else 'DIFFERS'}")
    verdict = "IDENTICAL" if out["identical"] else "DIFFERS"
    print(f"{'verdict'.ljust(width)} : {verdict} "
          f"({args.workers} shard(s), {args.mode} mode, vs reference)")
    return 0 if out["identical"] else 1


def register(sub: argparse._SubParsersAction) -> None:
    """Declare ``shard`` and its subcommands on the ``repro.tools``
    subparsers."""
    from repro.scenarios import SCENARIOS

    scenario_help = (f"scenario name: {', '.join(SCENARIOS)} or "
                     "chaos:<campaign>")
    shard_sub = sub.add_parser(
        "shard", help="sharded parallel simulation: plan / run / diff",
    ).add_subparsers(dest="shard_command", required=True)
    plan = shard_sub.add_parser(
        "plan", help="render an app's committed shard plan + worker "
                     "assignment table")
    plan.set_defaults(run=run_shard_plan)
    plan.add_argument("app", help="app name (e.g. nat, sync_counter)")
    plan.add_argument("--workers", type=int, default=2,
                      help="worker count for the assignment table "
                           "(default 2)")
    plan.add_argument("--json", action="store_true",
                      help="emit the raw plan JSON (same renderer as "
                           "verify --emit-plans)")
    run = shard_sub.add_parser(
        "run", help="run a scenario sharded across N workers and merge")
    run.set_defaults(run=run_shard_run)
    run.add_argument("scenario", help=scenario_help)
    run.add_argument("--workers", type=int, default=2)
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario's default seed")
    run.add_argument("--mode", choices=("inline", "process"),
                     default="inline",
                     help="inline (sequential, one process) or process "
                          "(forked workers, each run straight through)")
    run.add_argument("--no-capture", action="store_true",
                     help="skip record capture (throughput runs; merge "
                          "reports counts only)")
    run.add_argument("--heartbeat-dir", dest="heartbeat_dir",
                     help="write per-shard heartbeat NDJSON files here "
                          "(view with 'watch DIR/*.ndjson -f')")
    run.add_argument("--save", help="write the merged summary JSON into "
                                    "this directory")
    run.add_argument("--json", action="store_true",
                     help="machine-readable merged summary")
    diff = shard_sub.add_parser(
        "diff", help="byte-identity gate: N-shard merged run vs the "
                     "single-process reference")
    diff.set_defaults(run=run_shard_diff)
    diff.add_argument("scenario", help=scenario_help)
    diff.add_argument("--workers", type=int, default=2)
    diff.add_argument("--mode", choices=("inline", "process"),
                      default="inline")
