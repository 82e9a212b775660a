"""Sharded parallel simulation driven by machine-checked shard plans.

The horizontal-scaling subsystem: partition a campaign's flow
population across N workers according to the committed per-app shard
plan (``shard_plans/<app>.json``, produced and drift-checked by
``repro.verify`` pass 5), synchronize them with a conservative
time-window protocol bounded by the plan's cross-shard min-latency
lookahead, and deterministically merge the per-shard streams back into
the exact byte stream the single-process reference produces.

Package map:

=================  ==========================================================
module             role
=================  ==========================================================
``plan``           committed-plan loading, legality, launch-time RS408 gate
``assign``         flow -> shard hashing from the plan's partition key
``recorder``       per-shard sidecars: origins, uid births, observations
``window``         conservative window protocol (lookahead law, controller)
``frames``         length-prefixed worker protocol frames
``scenarios``      shard-disciplined campaign drivers (incl. million-flow)
``runner``         reference / inline / process drive modes + identity gate
``worker``         spawned-process worker entry point
``merge``          deterministic stream reassembly + identity report
=================  ==========================================================

See docs/SHARDING.md for the end-to-end story.
"""

from repro.shard.merge import MergeError, identity_report, merge_results
from repro.shard.plan import (
    PlanDriftError,
    PlanError,
    check_conformance,
    load_plan,
    shardability,
    sync_window_us,
)
from repro.shard.recorder import ShardRecorder
from repro.shard.runner import (
    ShardRunConfig,
    resolve,
    run_identity,
    run_reference,
    run_sharded,
)
from repro.shard.window import (
    BoundaryBuffer,
    BoundaryViolation,
    WindowController,
    WindowSchedule,
)

__all__ = [
    "BoundaryBuffer",
    "BoundaryViolation",
    "MergeError",
    "PlanDriftError",
    "PlanError",
    "ShardRecorder",
    "ShardRunConfig",
    "WindowController",
    "WindowSchedule",
    "check_conformance",
    "identity_report",
    "load_plan",
    "merge_results",
    "resolve",
    "run_identity",
    "run_reference",
    "run_sharded",
    "shardability",
    "sync_window_us",
]
