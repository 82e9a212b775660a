"""Sharded parallel simulation driven by machine-checked shard plans.

The horizontal-scaling subsystem: partition a campaign's flow
population across N workers according to the committed per-app shard
plan (``shard_plans/<app>.json``, produced by ``repro.verify`` pass 5
and drift-checked at launch), run every worker straight through — each
simulates the whole topology and admits only its own flows, so shards
exchange nothing and need no clock protocol — and deterministically
merge the per-shard logs back into the exact byte stream the
single-process reference produces. The campaigns it runs are the named
scenarios of :mod:`repro.scenarios`.

Package map:

=================  ==========================================================
module             role
=================  ==========================================================
``plan``           committed-plan loading, legality, launch-time drift gate
``assign``         flow -> shard hashing from the plan's partition key
``recorder``       per-shard sidecar: origin ranks and the one ordered log
``frames``         worker report messages: pickled (type, body) (3 types)
``runner``         reference / inline / process drive modes + identity gate
``worker``         forked-process workers + the parent's collect loop
``merge``          one-pass log merge, ghost subtraction, merged fingerprint
``cli``            ``repro.tools shard plan|run|diff``: flags and handlers
=================  ==========================================================

See docs/SHARDING.md for the end-to-end story.
"""

from repro.shard.merge import MergeError, merge_results
from repro.shard.plan import (
    PlanDriftError,
    PlanError,
    check_conformance,
    load_plan,
    shardability,
)
from repro.shard.recorder import ShardRecorder
from repro.shard.runner import (
    ShardRunConfig,
    resolve,
    run_identity,
    run_reference,
    run_sharded,
)

__all__ = [
    "MergeError",
    "PlanDriftError",
    "PlanError",
    "ShardRecorder",
    "ShardRunConfig",
    "check_conformance",
    "load_plan",
    "merge_results",
    "resolve",
    "run_identity",
    "run_reference",
    "run_sharded",
    "shardability",
]
