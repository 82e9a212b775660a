"""``python -m bench {run,trace,selfcheck}`` — see bench/README.md."""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

DEFAULT_SEED = 5
#: Timed-region budget per workload run; equals BENCHMARK.json run_seconds.
DEFAULT_SECONDS = 10.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", help="one workload (default: all six)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed of the benchmark's input generators")
        p.add_argument("--scale", type=float, default=1.0,
                       help="shrink packet counts (smoke tests only; "
                            "reported numbers use 1.0)")
        p.add_argument("--out", default="",
                       help="directory for per-workload JSON and span rows")

    def timing(p: argparse.ArgumentParser) -> None:
        p.add_argument("--reps", type=int, default=0,
                       help="fix K timed repetitions (default: repeat for "
                            "--seconds of timed region, 3 <= K <= 7)")
        p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                       help="timed-region budget per workload")

    run = sub.add_parser("run", help="end-to-end metrics (untraced)")
    common(run)
    timing(run)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1 = the traced run (same as the trace command)")

    trace = sub.add_parser("trace", help="per-layer metrics (traced run)")
    common(trace)

    check = sub.add_parser("selfcheck", help="A/A test of the benchmark")
    check.add_argument("--sets", type=int, default=2)
    check.add_argument("--runs", type=int, default=5)
    check.add_argument("--scale", type=float, default=1.0)
    check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    check.add_argument("--workload", help="one workload (default: all six)")
    check.add_argument("--out", default="",
                       help="directory for every run's full result")
    timing(check)

    child = sub.add_parser("child")  # internal: one workload, this process
    common(child)
    timing(child)
    child.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _names(workload: Optional[str]) -> List[str]:
    from bench.workloads import WORKLOADS

    if workload is None:
        return list(WORKLOADS)
    if workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {workload!r}; "
                         f"have: {', '.join(WORKLOADS)}")
    return [workload]


def main(argv: Optional[List[str]] = None) -> int:
    from bench import require_repro

    args = _parser().parse_args(argv)
    require_repro()

    if args.command == "child":
        from bench import child

        (name,) = _names(args.workload)
        if args.trace:
            result = child.trace(name, args.seed, args.scale, args.out)
        else:
            result = child.measure(name, args.seed, args.scale, args.reps,
                                   args.seconds)
        print(json.dumps(result))
        return 0

    if args.command == "selfcheck":
        from bench.selfcheck import selfcheck

        return selfcheck(_names(args.workload), args.sets, args.runs,
                         args.seed, args.scale, args.reps, args.seconds,
                         args.out)

    from bench.harness import run_workloads

    # A terminated driver still kills and reaps its child (run_child's
    # ``finally``) instead of leaving it to run on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    traced = args.command == "trace" or bool(args.trace)
    return run_workloads(_names(args.workload), args.seed, args.scale,
                         getattr(args, "reps", 0),
                         getattr(args, "seconds", DEFAULT_SECONDS),
                         traced, args.out)


# Spawned shard workers re-import this module as ``__mp_main__``; without
# the guard every worker would start the whole benchmark again and die in
# multiprocessing's bootstrap check.
if __name__ == "__main__":
    sys.exit(main())
