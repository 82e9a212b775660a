"""``repro.verify`` — P4-compiler-style static analysis for the reproduction.

Five coordinated passes over the code and the configured artifacts,
sharing one diagnostic engine (rule ids, severities, source locations,
JSON + human rendering, ``# repro: noqa[RULE]`` suppressions):

* **pipeline** (:mod:`repro.verify.pipeline_pass`) — walks a configured
  :class:`~repro.switch.asic.SwitchASIC` program symbolically and proves
  or refutes the Tofino hardware constraints the runtime model only
  discovers mid-simulation: at most one access per register array per
  packet across all verdict paths (PAPER §5.4), stage/ALU budgets,
  mirror-session wiring, and resource fit against
  :data:`repro.switch.resources.CAPACITY` (Table 2).
* **determinism** (:mod:`repro.verify.determinism_pass`) — an AST lint
  over the source tree forbidding simulation-breaking constructs (wall
  clock, unseeded randomness, set-iteration-order leaks, identity-based
  ordering): the invariant every same-seed byte-identical guarantee in
  CHANGES.md silently relies on.
* **telemetry** (:mod:`repro.verify.telemetry_pass`) — validates metric
  and trace emit sites against the declared schema in
  :mod:`repro.telemetry.schema` (names, label sets, cardinality bounds,
  span open/close pairing) so the spans-completeness guarantee is checked
  statically, not only empirically.
* **fastpath** (:mod:`repro.verify.fastpath_pass`) — proves the flow
  cache's bit-identical-replay contract: replay functions stay inside
  :data:`repro.fastpath.flowcache.REPLAY_EFFECTS` and partition inputs
  are declared (RP14x).
* **partition** (:mod:`repro.verify.partition_pass`) — classifies every
  piece of per-app switch state as flow-local, flow-hash-partitionable,
  or global on the partition-class lattice and emits a machine-checked
  shard plan per app (``shard_plans/``).

Three rule families read source files rather than deployed apps — the
determinism, telemetry and fastpath rules. They are the *tree lints*,
and :func:`verify_tree` runs them all: one parse, one suppression scan,
one import table and one AST walk per file. The pipeline and partition
passes read live code through one symbolic walker
(:class:`repro.verify.astutil.Walker`), each with its own lattice.
``python -m repro.tools verify --all`` runs everything; the CI
``verify`` job gates on it with ``--strict``, and re-emits the shard
plans to check them byte-equal to the committed ones.
"""

from repro.verify.diagnostics import (
    Diagnostic,
    Report,
    Severity,
    SuppressionIndex,
)
from repro.verify.rules import RULES, Rule
from repro.verify.pipeline_pass import verify_asic, verify_app
from repro.verify.determinism_pass import verify_tree
from repro.verify.partition_pass import (
    plan_json,
    render_plan,
    verify_partition_app,
)

__all__ = [
    "Diagnostic",
    "Report",
    "Severity",
    "SuppressionIndex",
    "RULES",
    "Rule",
    "verify_asic",
    "verify_app",
    "verify_tree",
    "verify_partition_app",
    "plan_json",
    "render_plan",
]
