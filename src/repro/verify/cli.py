"""The ``repro.tools verify`` command: :func:`register` declares its
flags, :func:`run_verify` is its handler.

Runs the five passes with one shared suppression index and one report,
so a single ``# repro: noqa[...]`` grammar covers all rule families and
unused suppressions are judged once, after every pass has spoken.

Tree lints (determinism, telemetry, fastpath, shard hazards) take
file/directory paths; the pipeline and partition verifiers need
*deployed programs*, so they run over the builtin application registry
(``--all`` / ``--app NAME``), deploying each app on a fresh simulated
testbed exactly as the experiments do and analyzing the resulting
switch.

The partition pass additionally produces one shard plan per analyzed
app. ``--plan`` renders the plans, ``--emit-plans DIR`` writes their
canonical JSON, and RS408 reports drift between freshly computed plans
and the committed ``shard_plans/`` artifacts.

``--baseline`` compares per-rule active-diagnostic counts against a
committed ``verify_baseline.json`` and fails only on *regressions*
(counts above the baseline), so CI can gate on "no new findings"
while a cleanup burns existing ones down.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from repro.verify.determinism_pass import verify_determinism
from repro.verify.diagnostics import (
    Diagnostic, Report, Severity, SuppressionIndex,
)
from repro.verify.fastpath_pass import verify_fastpath
from repro.verify.partition_pass import (
    plan_json, render_plan, verify_partition_app, verify_shard_hazards,
)
from repro.verify.pipeline_pass import verify_app, verify_netchain
from repro.verify.rules import RULES
from repro.verify.telemetry_pass import verify_telemetry


def source_root() -> str:
    """The ``src/`` directory this installation runs from."""
    here = os.path.dirname(os.path.abspath(__file__))  # src/repro/verify
    return os.path.normpath(os.path.join(here, "..", ".."))


def repo_root() -> str:
    """Diagnostics are reported relative to this directory."""
    return os.path.normpath(os.path.join(source_root(), ".."))


def default_baseline_path() -> str:
    return os.path.join(repo_root(), "verify_baseline.json")


def shard_plan_dir() -> str:
    """Where the committed per-app shard plans live."""
    return os.path.join(repo_root(), "shard_plans")


def rule_counts(report: Report) -> Dict[str, int]:
    """Active (unsuppressed) diagnostics per rule id, for baselines."""
    counts: Dict[str, int] = {}
    for diag in report.active():
        counts[diag.rule] = counts.get(diag.rule, 0) + 1
    return counts


def baseline_regressions(
    counts: Dict[str, int], baseline: Dict[str, int]
) -> Dict[str, Dict[str, int]]:
    """Rules whose active count exceeds the baselined count.

    Rules absent from the baseline count as baselined at zero, so a
    brand-new finding is always a regression; counts at or below the
    baseline (including rules fixed since) never fail.
    """
    out: Dict[str, Dict[str, int]] = {}
    for rule, count in sorted(counts.items()):
        allowed = int(baseline.get(rule, 0))
        if count > allowed:
            out[rule] = {"count": count, "baseline": allowed}
    return out


def _check_plan_drift(
    plans: Dict[str, dict],
    report: Report,
    supp: SuppressionIndex,
    root: str,
) -> None:
    """RS408: freshly computed plans must match the committed artifacts.

    Only runs when the committed ``shard_plans/`` directory exists, so a
    fresh checkout that has never emitted plans is not spammed; once the
    directory is committed, every analyzed app must have an up-to-date
    plan in it.
    """
    plan_dir = shard_plan_dir()
    if not os.path.isdir(plan_dir):
        return
    for name in sorted(plans):
        path = os.path.join(plan_dir, f"{name}.json")
        rel = os.path.relpath(path, root)
        fresh = plan_json(plans[name])
        try:
            with open(path, encoding="utf-8") as fh:
                committed = fh.read()
        except OSError:
            committed = None
        if committed == fresh:
            continue
        what = "missing" if committed is None else "stale"
        report.add(Diagnostic(
            "RS408", Severity.ERROR,
            f"committed shard plan for app {name!r} is {what}; "
            "regenerate with 'verify --all --emit-plans shard_plans'",
            rel, 1, site=f"app={name}",
        ), suppressions=supp)


def run_verify(args: argparse.Namespace) -> int:
    """``repro.tools verify``: run the passes, print the report."""
    from repro.apps import BUILTIN_APPS

    app, paths, all_targets = args.app, args.paths, args.all_targets
    root = repo_root()
    report = Report()
    supp = SuppressionIndex()

    wanted: Optional[List[str]] = None
    if args.rules:
        wanted = sorted(
            {r.strip() for r in args.rules.split(",") if r.strip()})
        unknown = [r for r in wanted if r not in RULES]
        if unknown:
            print(
                f"unknown rule id(s): {', '.join(unknown)}; see "
                "docs/VERIFY.md for the rule tables",
                file=sys.stderr,
            )
            return 2

    if app == "netchain":
        apps = {}
    elif app is not None:
        factory = BUILTIN_APPS.get(app)
        if factory is None:
            print(
                f"unknown app {app!r}; builtin apps: "
                f"{', '.join(sorted(BUILTIN_APPS))}, netchain",
                file=sys.stderr,
            )
            return 2
        apps = {app: factory}
    elif all_targets or not paths:
        apps = dict(BUILTIN_APPS)
    else:
        apps = {}

    lint_paths = list(paths)
    if all_targets or not paths:
        lint_paths.append(os.path.join(source_root(), "repro"))

    plans: Dict[str, dict] = {}
    for name in sorted(apps):
        factory = apps[name]
        verify_app(
            factory, label=name, report=report, suppressions=supp, root=root
        )
        _, plan = verify_partition_app(
            factory, label=name, report=report, suppressions=supp, root=root
        )
        plans[name] = plan
    # The NetChain in-switch store is a deployable switch program too:
    # verify its ToR pipeline whenever the full app registry is verified.
    if app == "netchain" or (app is None and (all_targets or not paths)):
        verify_netchain(report=report, suppressions=supp, root=root)
    if lint_paths:
        verify_determinism(
            lint_paths, report=report, suppressions=supp, root=root
        )
        verify_telemetry(
            lint_paths, report=report, suppressions=supp, root=root
        )
        verify_fastpath(
            lint_paths, report=report, suppressions=supp, root=root
        )
        verify_shard_hazards(
            lint_paths, report=report, suppressions=supp, root=root
        )

    if args.emit_plans:
        os.makedirs(args.emit_plans, exist_ok=True)
        for name in sorted(plans):
            path = os.path.join(args.emit_plans, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(plan_json(plans[name]))
        print(
            f"wrote {len(plans)} shard plan(s) to {args.emit_plans}",
            file=sys.stderr,
        )
    else:
        _check_plan_drift(plans, report, supp, root)

    if wanted is not None:
        report.finalize_suppressions(supp, rules=tuple(wanted))
        keep = set(wanted) | {"QA001", "QA002"}
        report.diagnostics = [
            d for d in report.diagnostics if d.rule in keep
        ]
    else:
        report.finalize_suppressions(supp)

    if args.write_baseline:
        doc = {"format": 1, "rule_counts": rule_counts(report)}
        with open(args.write_baseline, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote verify baseline to {args.write_baseline}",
              file=sys.stderr)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"wrote verify report to {args.out}", file=sys.stderr)
    if args.show_plans and plans:
        for name in sorted(plans):
            print(render_plan(plans[name]))
            print()
    print(report.to_json() if args.json else report.render())

    if args.baseline:
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                base_counts = json.load(fh).get("rule_counts", {})
        except OSError as exc:
            print(f"cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        regressions = baseline_regressions(rule_counts(report), base_counts)
        if regressions:
            for rule, info in regressions.items():
                print(
                    f"baseline regression: {rule} has {info['count']} "
                    f"active finding(s), baseline allows {info['baseline']}",
                    file=sys.stderr,
                )
            return 1
        print(
            "baseline check passed: no rule above its baselined count",
            file=sys.stderr,
        )
        return 0
    return report.exit_code(strict=args.strict)


def register(sub: argparse._SubParsersAction) -> None:
    """Declare ``verify`` on the ``repro.tools`` subparsers."""
    p = sub.add_parser(
        "verify", help="static analysis: pipeline constraints, determinism "
                       "lint, telemetry schema (see docs/VERIFY.md)")
    p.set_defaults(run=run_verify)
    p.add_argument("paths", nargs="*",
                   help="files/directories for the tree lints (default: the "
                        "repro source tree)")
    p.add_argument("--all", action="store_true", dest="all_targets",
                   help="verify every builtin app's deployed pipeline plus "
                        "the whole source tree")
    p.add_argument("--app", metavar="NAME",
                   help="verify one builtin app's pipeline")
    p.add_argument("--json", action="store_true",
                   help="print the JSON report")
    p.add_argument("--out", metavar="PATH",
                   help="also write the JSON report here")
    p.add_argument("--strict", action="store_true",
                   help="fail on warnings too, not just errors")
    p.add_argument("--rule", metavar="ID[,ID]", dest="rules",
                   help="report only these rule ids (plus QA001/QA002 "
                        "suppression hygiene)")
    p.add_argument("--baseline", metavar="PATH", nargs="?",
                   const=default_baseline_path(),
                   help="fail only on per-rule count regressions vs this "
                        "baseline (default: verify_baseline.json)")
    p.add_argument("--write-baseline", metavar="PATH", nargs="?",
                   const=default_baseline_path(), dest="write_baseline",
                   help="snapshot current per-rule counts (default: "
                        "verify_baseline.json)")
    p.add_argument("--plan", action="store_true", dest="show_plans",
                   help="render the per-app shard plans the partition pass "
                        "computed")
    p.add_argument("--emit-plans", metavar="DIR", dest="emit_plans",
                   help="write canonical shard_plan JSON for every analyzed "
                        "app into DIR")
