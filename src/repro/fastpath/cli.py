"""``repro.tools fastpath [--diff]``: its flags (:func:`register`) and
handler. Leaves with the flow cache."""

from __future__ import annotations

import argparse
import json
import sys


def run_fastpath(args: argparse.Namespace) -> int:
    """Fast-path statistics, or an on/off A/B identity + speedup check,
    on the registry's ``nat_steady`` scenario run in one process."""
    from repro import identity
    from repro.shard.runner import resolve, run_reference

    def run(fastpath: bool) -> dict:
        result = run_reference(resolve(
            "nat_steady", 1, seed=args.seed, fastpath=fastpath,
            params={"flows": args.flows, "packets_per_flow": args.packets}))
        result["packets"] = result["extra"]["packets"]
        result["packets_per_s"] = result["packets"] / result["wall_s"]
        return result

    try:
        off = run(False) if args.diff else None
        on = run(True)
    except ValueError as exc:
        print(f"fastpath: {exc}", file=sys.stderr)
        return 2
    if args.diff:
        report = identity.compare(off, on)
        identical = all(report.values())
        speedup = on["packets_per_s"] / off["packets_per_s"]
        if args.json:
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
    if args.json:
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
        sorted(stats["invalidations"].items())))
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    """Declare ``fastpath`` on the ``repro.tools`` subparsers."""
    p = sub.add_parser(
        "fastpath", help="run the NAT steady-state scenario with the "
                         "fast path and print cache statistics")
    p.set_defaults(run=run_fastpath)
    p.add_argument("--diff", action="store_true",
                   help="also run the reference path and check bit-identity "
                        "+ speedup; nonzero exit on divergence")
    p.add_argument("--flows", type=int, default=50,
                   help="concurrent NAT flows (default 50)")
    p.add_argument("--packets", type=int, default=400,
                   help="packets per flow (default 400)")
    p.add_argument("--seed", type=int, default=5,
                   help="simulator seed (default 5)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
