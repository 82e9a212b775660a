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
never drift from the implementation. The tree-lint driver
(:func:`repro.verify.determinism_pass.verify_tree`) calls it: RP140 on
each node it walks inside a ``replay_*`` function of the fast-path
package, RP141 on each class.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.fastpath.flowcache import REPLAY_EFFECTS
from repro.verify import astutil
from repro.verify.diagnostics import Report


def check_replay(fn_name: str, node: ast.AST, rel: str,
                 report: Report) -> None:
    """RP140: method calls and attribute writes inside replay function
    ``fn_name`` stay in REPLAY_EFFECTS."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        name = node.func.attr
        if name not in REPLAY_EFFECTS:
            report.flag("RP140",
                        f"replay function {fn_name!r} calls {name!r}, which "
                        f"is not in the REPLAY_EFFECTS allowlist — an effect "
                        f"the reference helpers do not perform",
                        rel, node.lineno)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        if node.attr not in REPLAY_EFFECTS:
            report.flag("RP140",
                        f"replay function {fn_name!r} assigns attribute "
                        f"{node.attr!r} outside the REPLAY_EFFECTS allowlist",
                        rel, node.lineno)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Del):
        report.flag("RP140",
                    f"replay function {fn_name!r} deletes attribute "
                    f"{node.attr!r}", rel, node.lineno)


def _reads_payload(fn: ast.FunctionDef) -> Optional[int]:
    """Line of the first ``.payload`` read inside ``fn``, if any."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and node.attr == "payload":
            return node.lineno
    return None


def _declares_packet_inputs(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        targets, value = astutil.assignment(stmt)
        if isinstance(value, ast.Constant) and value.value == "packet" and any(
            isinstance(t, ast.Name) and t.id == "partition_inputs"
            for t in targets
        ):
            return True
    return False


def check_app_class(cls: ast.ClassDef, rel: str, report: Report) -> bool:
    """RP141 for one class; returns True when it defines partition_key."""
    fn = next((stmt for stmt in cls.body
               if isinstance(stmt, ast.FunctionDef)
               and stmt.name == "partition_key"), None)
    if fn is None:
        return False
    line = _reads_payload(fn)
    if line is not None and not _declares_packet_inputs(cls):
        report.flag("RP141",
                    f"{cls.name}.partition_key reads the packet payload but "
                    f"the class does not declare partition_inputs = "
                    f"\"packet\"; the flow-cache signature would omit the "
                    f"payload and replay a wrong partition decision",
                    rel, line)
    return True
