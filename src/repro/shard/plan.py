"""Shard-plan loading, legality, and launch-time conformance (RS408).

The verify pass 5 analyzer commits one machine-checked plan per app in
``shard_plans/<app>.json``. This module is the runtime consumer:

* :func:`load_plan` reads the committed artifact;
* :func:`check_conformance` recomputes the plan from the live code and
  refuses to shard when the committed plan has drifted (the launch-time
  face of verify rule RS408 — the same byte comparison ``verify --all``
  applies offline);
* :func:`shardability` decides whether flows may be hash-partitioned or
  must be pinned to one owner shard (global residue, hashed payload
  keys — the Cascone/Muqaddas state-access constraints the analyzer
  already classified).
"""

from __future__ import annotations

import json
import os
from itertools import zip_longest
from typing import Dict, List, Optional, Tuple

from repro.shard.assign import extractable


class PlanError(ValueError):
    """A committed shard plan is malformed or internally inconsistent."""


class PlanDriftError(PlanError):
    """The committed plan no longer matches the live code (RS408)."""


def plan_dir(root: Optional[str] = None) -> str:
    if root is not None:
        return os.path.join(root, "shard_plans")
    from repro.verify.cli import shard_plan_dir

    return shard_plan_dir()


def load_plan(app: str, root: Optional[str] = None) -> Dict[str, object]:
    """Read the committed plan for ``app``; PlanError when absent/bad."""
    path = os.path.join(plan_dir(root), f"{app}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            plan = json.load(fh)
    except OSError as exc:
        raise PlanError(
            f"no committed shard plan for app {app!r} "
            f"(expected {path}); run 'verify --all --emit-plans shard_plans'"
        ) from exc
    except json.JSONDecodeError as exc:
        raise PlanError(f"malformed shard plan {path}: {exc}") from exc
    if plan.get("format") != 3:
        raise PlanError(
            f"unsupported shard plan format {plan.get('format')!r} in {path}"
        )
    return plan


_ABSENT = "<absent>"


def _first_difference(live: object, committed: object, path: str = "$") -> str:
    """The first JSON path (keys sorted, lists by index) at which two
    plans differ, with both values."""
    pairs: List[Tuple[str, object, object]] = []
    if isinstance(live, dict) and isinstance(committed, dict):
        pairs = [(f"{path}.{key}", live.get(key, _ABSENT),
                  committed.get(key, _ABSENT))
                 for key in sorted(set(live) | set(committed))]
    elif isinstance(live, list) and isinstance(committed, list):
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(
            zip_longest(live, committed, fillvalue=_ABSENT))]
    for step, a, b in pairs:
        if a != b:
            return _first_difference(a, b, step)
    return f"{path}: live code has {live!r}, committed plan has {committed!r}"


def check_conformance(app: str, root: Optional[str] = None) -> Dict[str, object]:
    """Launch-time RS408: recompute the plan and byte-compare.

    Deploys the app exactly as ``verify --all`` does, serializes the
    fresh plan canonically, and compares against the committed bytes.
    Returns the (validated) plan on success; raises
    :class:`PlanDriftError` on any difference — a sharded run against a
    stale plan could partition state the code no longer keys that way.
    """
    from repro.apps import BUILTIN_APPS
    from repro.verify.cli import repo_root
    from repro.verify.partition_pass import plan_json, verify_partition_app

    factory = BUILTIN_APPS.get(app)
    if factory is None:
        raise PlanError(
            f"unknown app {app!r}; builtin apps: "
            f"{', '.join(sorted(BUILTIN_APPS))}"
        )
    committed = load_plan(app, root)
    # Site paths in the fresh plan must relativize against the repo, not
    # the caller's cwd, or conformance fails for runs launched elsewhere.
    _, fresh = verify_partition_app(
        factory, label=app, root=root or repo_root()
    )
    if plan_json(fresh) != plan_json(committed):
        where = _first_difference(json.loads(plan_json(fresh)),
                                  json.loads(plan_json(committed)))
        raise PlanDriftError(
            f"committed shard plan for app {app!r} has drifted from the "
            f"live code (RS408) at {where}; refusing to shard. Regenerate "
            "with 'verify --all --emit-plans shard_plans' and review the "
            "diff."
        )
    return committed


def shardability(plan: Dict[str, object]) -> Tuple[bool, str]:
    """Whether flows may be hash-partitioned across workers.

    Returns ``(True, key_reason)`` when every structure is flow-local
    under a packet-extractable key and the global residue is empty.
    Otherwise ``(False, reason)``: the run is still legal, but every
    flow is pinned to one owner shard (shard 0) so the global-residue
    structures observe the full population in reference order.
    """
    residue = plan.get("global_residue") or []
    if residue:
        return False, (
            f"{len(residue)} global-residue structure(s) "
            f"(e.g. {residue[0]}) must observe every flow"
        )
    pclass = plan.get("partition_class")
    if pclass not in ("flow_local", "flow_hash"):
        return False, f"partition class {pclass!r} is not flow-partitionable"
    key = plan.get("partition_key") or {}
    fields = key.get("fields") or []
    if not extractable(fields):
        return False, (
            f"partition key fields {fields!r} are not packet-header "
            "extractable (hashed/payload keys pin to one shard)"
        )
    return True, f"flow key [{', '.join(fields)}]"


def key_fields(plan: Dict[str, object]) -> List[str]:
    key = plan.get("partition_key") or {}
    return list(key.get("fields") or [])
