"""``repro.tools chaos`` and ``repro.tools fuzz run | self-check | shrink
| replay``: the one declaration of their flags (:func:`register`) and
their handlers."""

from __future__ import annotations

import argparse
import json
import os
import sys


def _emit(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_json(path: str, doc: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_chaos(args: argparse.Namespace) -> int:
    """Run one chaos campaign; exit nonzero on FAIL or a verdict mismatch.

    ``--heartbeat`` streams the run's NDJSON health snapshots to that
    path (first run only; view with ``repro.tools watch``)."""
    from repro.chaos import CAMPAIGNS, render_report, run_campaign, \
        verdict_json
    from repro.observe import ObserveOptions

    campaign, seed = args.campaign, args.seed
    if args.list_campaigns or campaign is None:
        width = max(len(name) for name in CAMPAIGNS)
        for name, c in CAMPAIGNS.items():
            print(f"{name.ljust(width)}  {c.description}")
        return 0
    if campaign not in CAMPAIGNS:
        _emit(f"chaos: unknown campaign {campaign!r}; known: "
              f"{', '.join(sorted(CAMPAIGNS))}")
        return 2
    report = run_campaign(
        campaign, seed=seed, trace_path=args.trace,
        observe=ObserveOptions(heartbeat_path=args.heartbeat))
    serialized = verdict_json(report)
    if args.heartbeat:
        _emit(f"wrote heartbeats to {args.heartbeat} (view with: python -m "
              f"repro.tools watch {args.heartbeat})")
    if args.trace:
        _emit(f"wrote {report['trace']['records_emitted']} trace records "
              f"to {args.trace}")
    dropped = report["trace"]["records_dropped"]
    if dropped:
        _emit(f"WARNING: trace ring truncated {dropped} records"
              + ("" if args.trace else
                 "; pass --trace PATH for the complete stream"))
    if args.check_determinism:
        repeat = verdict_json(run_campaign(campaign, seed=seed))
        if repeat != serialized:
            _emit(f"NONDETERMINISTIC: two seed={seed} runs of "
                  f"{campaign!r} produced different verdict reports")
            return 2
        _emit(f"determinism: two seed={seed} runs byte-identical")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(serialized)
        _emit(f"wrote verdict report to {args.out}")
    print(serialized if args.json else render_report(report))
    return 0 if report["verdict"] == "PASS" else 1


def run_fuzz_run(args: argparse.Namespace) -> int:
    """``fuzz run``: fuzz a budget of schedules, shrink every violation."""
    from repro.chaos.fuzz import regression_payload, run_fuzz
    from repro.chaos.scorecard import Scorecard

    report = run_fuzz(args.seed, args.budget, log=_emit)
    violations = report["violations"]
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for entry in violations:
            path = os.path.join(
                args.out_dir, f"fuzz-s{args.seed}-i{entry['index']}.json")
            _write_json(path, regression_payload(entry, args.seed, bug=None))
            _emit(f"wrote reproducer {path}")
    if args.scorecard:
        _write_json(args.scorecard, report["scorecard"])
        _emit(f"wrote scorecard {args.scorecard}")
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(Scorecard.render_dict(report["scorecard"]))
        print(f"{report['schedules_run']} schedules, "
              f"{len(violations)} violation(s)")
    return 1 if violations else 0


def run_fuzz_self_check(args: argparse.Namespace) -> int:
    """``fuzz self-check``: the seeded bug must be found and shrunk."""
    from repro.chaos.fuzz import mutation_self_check

    report = mutation_self_check(
        seed=args.seed, budget=args.budget, bug=args.bug, log=_emit)
    if args.out:
        _write_json(args.out, report)
        _emit(f"wrote self-check report {args.out}")
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    elif report["ok"]:
        print(f"self-check OK: mutation {report['mutation']!r} found at "
              f"schedule {report['found_index']} and shrunk to "
              f"{report['minimal_faults']} fault(s); clean sweep green")
    else:
        print(f"self-check FAILED: {report.get('reason')}")
    return 0 if report["ok"] else 1


def run_fuzz_shrink(args: argparse.Namespace) -> int:
    """``fuzz shrink``: re-shrink a saved regression file."""
    from repro.chaos.campaigns import Campaign
    from repro.chaos.shrink import shrink_spec
    from repro.model.witness import ViolationWitness

    with open(args.file, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    spec = Campaign.from_dict(payload["spec"])
    witness = ViolationWitness.from_dict(payload["witness"])
    bug = payload.get("fuzzer", {}).get("mutation")
    shrunk = shrink_spec(spec, witness, bug=bug, budget=args.budget)
    _emit(f"shrunk {len(spec.faults)} -> {len(shrunk.spec.faults)} "
          f"fault(s) in {shrunk.runs_used} oracle runs")
    payload["spec"] = shrunk.spec.to_dict()
    payload["witness"] = shrunk.witness.to_dict()
    out = args.out or args.file
    _write_json(out, payload)
    _emit(f"wrote {out}")
    for fault in shrunk.spec.faults:
        print(fault.describe())
    return 0


def run_fuzz_replay(args: argparse.Namespace) -> int:
    """``fuzz replay``: regression files still (or no longer) reproduce."""
    from repro.chaos.fuzz import replay_regression

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


def register(sub: argparse._SubParsersAction) -> None:
    """Declare ``chaos`` and ``fuzz`` on the ``repro.tools`` subparsers."""
    chaos = sub.add_parser(
        "chaos", help="run a fault-injection campaign with invariant "
                      "auditing and print its verdict report")
    chaos.set_defaults(run=run_chaos)
    chaos.add_argument("campaign", nargs="?",
                       help="campaign name (omit with --list)")
    chaos.add_argument("--list", action="store_true", dest="list_campaigns",
                       help="show the campaign inventory")
    chaos.add_argument("--seed", type=int, default=42,
                       help="simulator seed (default 42)")
    chaos.add_argument("--json", action="store_true",
                       help="print the raw verdict report JSON")
    chaos.add_argument("--out", metavar="PATH",
                       help="also write the verdict report JSON")
    chaos.add_argument("--check-determinism", action="store_true",
                       help="run twice and require byte-identical verdict "
                            "reports")
    chaos.add_argument("--trace", metavar="PATH",
                       help="stream the full trace record stream to PATH "
                            "as JSONL (first run only)")
    chaos.add_argument("--heartbeat", metavar="PATH",
                       help="stream NDJSON health heartbeats to PATH (first "
                            "run only; view with 'watch')")
    fuzz_sub = sub.add_parser(
        "fuzz", help="seeded fault-schedule fuzzing: randomized schedules, "
                     "automatic shrinking, resilience scorecard",
    ).add_subparsers(dest="fuzz_command", required=True)
    run = fuzz_sub.add_parser(
        "run", help="fuzz a budget of schedules and shrink every violation")
    run.set_defaults(run=run_fuzz_run)
    run.add_argument("--seed", type=int, default=5,
                     help="fuzzer seed (default 5)")
    run.add_argument("--budget", type=int, default=24,
                     help="schedules to generate (default 24)")
    run.add_argument("--out-dir", metavar="DIR", dest="out_dir",
                     help="write one replayable regression file per "
                          "violation into DIR")
    run.add_argument("--scorecard", metavar="PATH",
                     help="write the resilience scorecard JSON here")
    run.add_argument("--json", action="store_true",
                     help="print the full fuzz report JSON")
    check = fuzz_sub.add_parser(
        "self-check", help="mutation-test the fuzzer: a seeded bug must be "
                           "found, shrunk, and vanish when disabled")
    check.set_defaults(run=run_fuzz_self_check)
    check.add_argument("--seed", type=int, default=5,
                       help="fuzzer seed (default 5)")
    check.add_argument("--budget", type=int, default=24,
                       help="schedules per sweep (default 24)")
    check.add_argument("--bug", default="skip_hold_dedup",
                       help="seeded bug to plant (default skip_hold_dedup)")
    check.add_argument("--out", metavar="PATH",
                       help="also write the self-check report JSON")
    check.add_argument("--json", action="store_true",
                       help="print the self-check report JSON")
    shrink = fuzz_sub.add_parser(
        "shrink", help="re-shrink a saved regression file in place")
    shrink.set_defaults(run=run_fuzz_shrink)
    shrink.add_argument("file", help="chaos-fuzz-regression JSON file")
    shrink.add_argument("--budget", type=int, default=80,
                        help="oracle runs (default 80)")
    shrink.add_argument("--out", metavar="PATH",
                        help="write here instead of in place")
    replay = fuzz_sub.add_parser(
        "replay", help="replay regression files and check their witnesses "
                       "still (or no longer) reproduce")
    replay.set_defaults(run=run_fuzz_replay)
    replay.add_argument("files", nargs="+",
                        help="chaos-fuzz-regression JSON files")
    replay.add_argument("--expect", default="auto",
                        choices=("auto", "reproduce", "clean"),
                        help="auto: mutation-recorded files must reproduce, "
                             "real-protocol files must be clean (default)")
    replay.add_argument("--json", action="store_true",
                        help="print each replay outcome JSON")
