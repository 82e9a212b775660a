"""``repro.verify`` — P4-compiler-style static analysis for the reproduction.

Coordinated passes over the code and the configured artifacts, sharing
one diagnostic engine (rule ids, severities, source locations, JSON +
human rendering; nothing can be waived):

* **pipeline** (:mod:`repro.verify.pipeline_pass`, RP1xx) — proves the
  Tofino constraints of a configured switch program: one access per
  register array per packet (PAPER §5.4), the stage/ALU budget,
  mirror-session wiring and resource fit (Table 2);
* **partition** (:mod:`repro.verify.partition_pass`, RS4xx) — classifies
  every piece of per-app switch state as flow-local, flow-hash or global
  and emits a machine-checked shard plan per app (``shard_plans/``);
* the **tree lints** (:func:`verify_tree`: one parse, one import table
  and one AST walk per file) — determinism (RD2xx: wall clock, unseeded
  randomness, set order, ids), the telemetry schema (RT3xx) and
  fast-path replay (RP14x).

Passes 1 and 5 read live code through one analyzer
(:class:`repro.verify.pipeline_pass.Analyzer`): each deployed app is walked
with one evaluator and one access record, which pass 1 reads per path
and pass 5 per index derivation. ``python -m repro.tools verify --all``
runs everything; the CI ``verify`` job gates on it with ``--strict`` and
re-emits the shard plans to check them byte-equal to the committed ones.
"""

from repro.verify.diagnostics import Diagnostic, Report, Severity
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
    "RULES",
    "Rule",
    "verify_asic",
    "verify_app",
    "verify_tree",
    "verify_partition_app",
    "plan_json",
    "render_plan",
]
