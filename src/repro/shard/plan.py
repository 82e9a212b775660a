"""Shard-plan loading, legality, and launch-time conformance.

The verify pass 5 analyzer commits one machine-checked plan per app in
``shard_plans/<app>.json``. This module is the runtime consumer:

* :func:`load_plan` reads the committed artifact;
* :func:`check_conformance` recomputes the plan from the live code and
  refuses to shard when the committed plan has drifted
  (``repro.verify.partition_pass.plan_drift``: the first JSON path at
  which the bytes differ);
* :func:`shardability` decides whether flows may be hash-partitioned or
  must be pinned to one owner shard (global residue, hashed payload
  keys — the Cascone/Muqaddas state-access constraints the analyzer
  already classified).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.shard.assign import extractable


class PlanError(ValueError):
    """A committed shard plan is malformed or internally inconsistent."""


class PlanDriftError(PlanError):
    """The committed plan no longer matches the live code."""


def plan_dir(root: Optional[str] = None) -> str:
    if root is not None:
        return os.path.join(root, "shard_plans")
    from repro.verify.cli import shard_plan_dir

    return shard_plan_dir()


def load_plan(app: str, root: Optional[str] = None) -> Dict[str, object]:
    """Read the committed plan for ``app``; PlanError when absent/bad."""
    return _read_plan(app, root)[1]


def _read_plan(app: str, root: Optional[str]) -> Tuple[str, Dict[str, object]]:
    """(committed bytes, parsed plan) for ``app``."""
    path = os.path.join(plan_dir(root), f"{app}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        plan = json.loads(text)
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
    return text, plan


def check_conformance(app: str, root: Optional[str] = None) -> Dict[str, object]:
    """Launch-time drift gate: recompute the plan and byte-compare.

    Deploys the app exactly as ``verify --all`` does and compares the
    fresh plan's canonical serialization with the committed bytes
    (:func:`repro.verify.partition_pass.plan_drift`).
    Returns the (validated) plan on success; raises
    :class:`PlanDriftError` on any difference — a sharded run against a
    stale plan could partition state the code no longer keys that way.
    """
    from repro.apps import BUILTIN_APPS
    from repro.verify.cli import repo_root
    from repro.verify.partition_pass import plan_drift, verify_partition_app

    factory = BUILTIN_APPS.get(app)
    if factory is None:
        raise PlanError(
            f"unknown app {app!r}; builtin apps: "
            f"{', '.join(sorted(BUILTIN_APPS))}"
        )
    text, committed = _read_plan(app, root)
    # Site paths in the fresh plan must relativize against the repo, not
    # the caller's cwd, or conformance fails for runs launched elsewhere.
    _, fresh = verify_partition_app(
        factory, label=app, root=root or repo_root()
    )
    where = plan_drift(fresh, text)
    if where is not None:
        raise PlanDriftError(
            f"committed shard plan for app {app!r} has drifted from the "
            f"live code at {where}; refusing to shard. Regenerate "
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
