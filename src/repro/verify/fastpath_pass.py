"""Pass 4: the fast-path replay lint.

The fast path's bit-identity contract (docs/PERFORMANCE.md) rests on two
statically-checkable properties, enforced here:

* **RP140** — the ``replay_*`` functions in
  :mod:`repro.fastpath.flowcache` may only produce side effects through
  the allowlisted surface :data:`~repro.fastpath.flowcache.REPLAY_EFFECTS`:
  every method they call and every attribute they assign must be in that
  set. Anything else is an effect the reference helpers do not perform,
  so a replayed packet could diverge from the reference pipeline.

* **RP141** — an application whose ``partition_key`` reads the packet
  payload must declare ``partition_inputs = "packet"``, so the flow-cache
  signature includes the payload. Without the declaration, two packets of
  one 5-tuple with different payloads would replay one cached partition
  decision — silently wrong for payload-keyed apps (KV store, sequencer).

Like the other tree lints this pass is purely syntactic; the allowlist
itself is imported from the running fast-path package so the lint can
never drift from the implementation.
"""

from __future__ import annotations

import ast
import os
from typing import List, Optional

from repro.fastpath.flowcache import REPLAY_EFFECTS
from repro.verify import astutil
from repro.verify.diagnostics import Diagnostic, Report, SuppressionIndex
from repro.verify.rules import RULES


def _diag(report: Report, supp: SuppressionIndex, rule_id: str,
          message: str, rel: str, line: int) -> None:
    r = RULES[rule_id]
    report.add(Diagnostic(r.id, r.severity, message, rel, line), supp)


def _check_replay(fn: ast.FunctionDef, rel: str, report: Report,
                  supp: SuppressionIndex) -> None:
    """RP140: method calls and attribute writes stay in REPLAY_EFFECTS."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            if name not in REPLAY_EFFECTS:
                _diag(report, supp, "RP140",
                      f"replay function {fn.name!r} calls {name!r}, which "
                      f"is not in the REPLAY_EFFECTS allowlist — an effect "
                      f"the reference helpers do not perform",
                      rel, node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if node.attr not in REPLAY_EFFECTS:
                _diag(report, supp, "RP140",
                      f"replay function {fn.name!r} assigns attribute "
                      f"{node.attr!r} outside the REPLAY_EFFECTS allowlist",
                      rel, node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Del):
            _diag(report, supp, "RP140",
                  f"replay function {fn.name!r} deletes attribute "
                  f"{node.attr!r}", rel, node.lineno)


def _reads_payload(fn: ast.FunctionDef) -> Optional[int]:
    """Line of the first ``.payload`` read inside ``fn``, if any."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr == "payload":
            return node.lineno
    return None


def _declares_packet_inputs(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if (isinstance(target, ast.Name)
                    and target.id == "partition_inputs"
                    and isinstance(value, ast.Constant)
                    and value.value == "packet"):
                return True
    return False


def _check_app_class(cls: ast.ClassDef, rel: str, report: Report,
                     supp: SuppressionIndex) -> bool:
    """RP141 for one class; returns True when it defines partition_key."""
    fn = next((stmt for stmt in cls.body
               if isinstance(stmt, ast.FunctionDef)
               and stmt.name == "partition_key"), None)
    if fn is None:
        return False
    line = _reads_payload(fn)
    if line is not None and not _declares_packet_inputs(cls):
        _diag(report, supp, "RP141",
              f"{cls.name}.partition_key reads the packet payload but the "
              f"class does not declare partition_inputs = \"packet\"; the "
              f"flow-cache signature would omit the payload and replay a "
              f"wrong partition decision", rel, line)
    return True


def verify_fastpath(
    paths: List[str],
    report: Optional[Report] = None,
    suppressions: Optional[SuppressionIndex] = None,
    root: Optional[str] = None,
) -> Report:
    """Run the fast-path lint over ``paths`` (files or directories)."""
    report = report if report is not None else Report()
    supp = suppressions if suppressions is not None else SuppressionIndex()
    files = replays = app_classes = 0
    for path in paths:
        for filename in astutil.iter_py_files(path):
            sf = astutil.load(filename)
            if sf is None:
                continue
            files += 1
            rel = astutil.relpath(sf.path, root)
            supp.scan(rel, source=sf.text)
            in_fastpath = (
                os.sep + "fastpath" + os.sep in sf.path
            )
            for node in ast.walk(sf.tree):
                if (isinstance(node, ast.FunctionDef)
                        and node.name.startswith("replay_")
                        and in_fastpath):
                    replays += 1
                    _check_replay(node, rel, report, supp)
                elif isinstance(node, ast.ClassDef):
                    if _check_app_class(node, rel, report, supp):
                        app_classes += 1
    report.analyzed["fastpath"] = (
        f"{files} file(s), {replays} replay function(s), "
        f"{app_classes} partitioned app class(es)"
    )
    return report
