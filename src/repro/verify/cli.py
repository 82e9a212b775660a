"""The ``repro.tools verify`` command: :func:`register` declares its
flags, :func:`run_verify` is its handler.

Runs every pass into one report.

The tree lints (determinism, telemetry, fastpath) take file/directory
paths and share one walk per file; the pipeline and partition verifiers
need *deployed programs*, so they run over the builtin application
registry (``--all`` / ``--app NAME``). Each app is deployed once, on a
fresh simulated testbed exactly as the experiments do, and one
:class:`~repro.verify.pipeline_pass.Analyzer` serves both passes: pass 1
walks its switch program, pass 5 its app. An app that does not deploy
ends the command with one line naming it and the error (exit 2).

The partition pass additionally produces one shard plan per analyzed
app. ``--plan`` renders the plans and ``--emit-plans DIR`` writes their
canonical JSON; drift from the committed ``shard_plans/`` is checked at
every sharded launch (:func:`repro.shard.plan.check_conformance`).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro.verify.determinism_pass import verify_tree
from repro.verify.diagnostics import Report
from repro.verify.partition_pass import plan_json, render_plan, shard_plan
from repro.verify.pipeline_pass import (
    DeployError, app_analyzer, check_app, deployed,
)
from repro.verify.rules import RULES


def source_root() -> str:
    """The ``src/`` directory this installation runs from."""
    here = os.path.dirname(os.path.abspath(__file__))  # src/repro/verify
    return os.path.normpath(os.path.join(here, "..", ".."))


def repo_root() -> str:
    """Diagnostics are reported relative to this directory."""
    return os.path.normpath(os.path.join(source_root(), ".."))


def shard_plan_dir() -> str:
    """Where the committed per-app shard plans live."""
    return os.path.join(repo_root(), "shard_plans")


def run_verify(args: argparse.Namespace) -> int:
    """``repro.tools verify``: run the passes, print the report."""
    from repro.apps import BUILTIN_APPS
    from repro.deploy import deploy

    app, paths, all_targets = args.app, args.paths, args.all_targets
    root = repo_root()
    report = Report()

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

    if app is not None:
        factory = BUILTIN_APPS.get(app)
        if factory is None:
            print(
                f"unknown app {app!r}; builtin apps: "
                + ", ".join(sorted(BUILTIN_APPS)),
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
    try:
        for name in sorted(apps):
            dep = deployed(deploy, apps[name])
            an = app_analyzer(dep, report, root)
            check_app(an, dep, name)
            plans[name] = shard_plan(an, dep, name)
    except DeployError as exc:
        print(f"app {name!r} does not deploy: {exc}", file=sys.stderr)
        return 2
    if lint_paths:
        verify_tree(lint_paths, report, root)

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

    if wanted is not None:
        report.diagnostics = [
            d for d in report.diagnostics if d.rule in wanted
        ]

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"wrote verify report to {args.out}", file=sys.stderr)
    if args.show_plans and plans:
        for name in sorted(plans):
            print(render_plan(plans[name]))
            print()
    print(report.to_json() if args.json else report.render())

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
                   help="report only these rule ids")
    p.add_argument("--plan", action="store_true", dest="show_plans",
                   help="render the per-app shard plans the partition pass "
                        "computed")
    p.add_argument("--emit-plans", metavar="DIR", dest="emit_plans",
                   help="write canonical shard_plan JSON for every analyzed "
                        "app into DIR")
