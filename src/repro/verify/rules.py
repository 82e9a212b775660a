"""The rule registry: every diagnostic the analyzer can produce.

Rule ids are stable API (tests and CI grep for them). Numbering mirrors
the pass structure: ``RP1xx`` pipeline verifier, ``RD2xx`` determinism
linter, ``RT3xx`` telemetry-schema lint, ``RS4xx`` partition analyzer.
docs/VERIFY.md documents each rule, the hardware constraint or invariant
it models, and its scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.verify.diagnostics import Severity


@dataclass(frozen=True)
class Rule:
    """One verifiable constraint."""

    id: str
    title: str
    severity: Severity
    #: Which pass produces it: "pipeline" | "determinism" | "telemetry" |
    #: "fastpath" | "partition".
    owner: str
    #: The paper section / hardware constraint / invariant it models.
    models: str


_RULES = [
    # -- Pass 1: pipeline verifier -------------------------------------------
    Rule("RP101", "register array accessed more than once on a packet path",
         Severity.ERROR, "pipeline",
         "PAPER §5.4: one access per register array per packet"),
    Rule("RP102", "register array accessed inside a per-packet loop",
         Severity.ERROR, "pipeline",
         "P4 has no per-packet loops; a loop over a fixed array implies "
         "multiple stateful-ALU accesses for one packet"),
    Rule("RP103", "register access not statically resolvable",
         Severity.WARNING, "pipeline",
         "the verifier must be able to name the array to prove the "
         "single-access constraint"),
    Rule("RP105", "duplicate control block instance in the pipeline",
         Severity.ERROR, "pipeline",
         "block ordering must be acyclic; the same instance twice is a "
         "cycle in the stage DAG"),
    Rule("RP110", "pipeline exceeds the stage budget",
         Severity.ERROR, "pipeline",
         "Table 2: 12 match-action stages x 4 stateful ALUs per stage"),
    Rule("RP122", "mirror session unreachable from any pipeline path",
         Severity.WARNING, "pipeline",
         "a configured session no code path can reach is dead resource"),
    Rule("RP123", "no code path releases a mirror session's copies",
         Severity.ERROR, "pipeline",
         "a session whose copies nothing releases circulates them forever "
         "and exhausts the packet buffer"),
    Rule("RP130", "declared resource usage exceeds chip capacity",
         Severity.ERROR, "pipeline",
         "Table 2 / resources.CAPACITY: the Tofino compiler rejects "
         "over-budget programs at compile time"),
    Rule("RP132", "declared SRAM under-counts instantiated stateful objects",
         Severity.ERROR, "pipeline",
         "Table 2: the declared budget must cover every register array "
         "the block actually instantiates"),
    Rule("RP133", "switch resource ledger out of sync with block inventory",
         Severity.WARNING, "pipeline",
         "resources registered on the ASIC must equal the sum of what "
         "its blocks and apps declare"),
    # -- Pass 4: fast-path replay lint ---------------------------------------
    Rule("RP140", "fast-path replay effect outside the declared surface",
         Severity.ERROR, "fastpath",
         "a replay_* function may only call/assign through the "
         "REPLAY_EFFECTS allowlist; anything else is a side effect the "
         "reference helpers do not perform, breaking bit-identity"),
    Rule("RP141", "payload-reading partition_key without a declaration",
         Severity.ERROR, "fastpath",
         "an app whose partition_key reads the payload must declare "
         "partition_inputs = 'packet' so the flow-cache signature "
         "includes the payload"),
    # -- Pass 2: determinism linter ------------------------------------------
    Rule("RD201", "wall-clock time source in simulation code",
         Severity.ERROR, "determinism",
         "trace/metric timestamps are simulated microseconds; wall clock "
         "breaks same-seed byte-identical runs"),
    Rule("RD202", "unseeded or process-global randomness",
         Severity.ERROR, "determinism",
         "all stochastic choices must come from a seeded random.Random "
         "(the simulator owns one)"),
    Rule("RD203", "set iteration order leaks into event ordering",
         Severity.ERROR, "determinism",
         "set iteration order depends on PYTHONHASHSEED; iterating a set "
         "into any ordered effect is nondeterministic"),
    Rule("RD204", "identity- or hash-based ordering",
         Severity.ERROR, "determinism",
         "id() and hash() vary across processes; using them as sort keys "
         "reorders events run to run"),
    # -- Pass 3: telemetry-schema lint ---------------------------------------
    Rule("RT301", "unknown trace event type",
         Severity.ERROR, "telemetry",
         "every trace type must be declared in repro.telemetry.schema so "
         "span reconstruction knows its role"),
    Rule("RT302", "trace emit site violates the declared field schema",
         Severity.ERROR, "telemetry",
         "missing required fields (or undeclared ones) break span "
         "reconstruction and attribution"),
    Rule("RT303", "metric label key has no declared cardinality bound",
         Severity.ERROR, "telemetry",
         "per-uid/per-packet labels explode the registry; every label "
         "key needs a declared bounded domain"),
    Rule("RT304", "metric name not declared in the schema",
         Severity.ERROR, "telemetry",
         "undeclared metrics dodge the analysis layer and the docs"),
    Rule("RT305", "metric emit site label set mismatches the schema",
         Severity.ERROR, "telemetry",
         "aggregation (MetricRegistry.total) silently misses instruments "
         "with unexpected label sets"),
    Rule("RT306", "metric emit site kind mismatches the schema",
         Severity.ERROR, "telemetry",
         "a name registered as two kinds raises at runtime"),
    Rule("RT307", "trace row emit whose field names are not a literal tuple",
         Severity.ERROR, "telemetry",
         "RT301/RT302 check a row emit through its literal key tuple; "
         "computed keys would make its field set a runtime fact"),
    Rule("RT310", "span-opening trace type has no closing emit site",
         Severity.ERROR, "telemetry",
         "every packet.send/dup needs a deliver/drop site, every "
         "rp.request an rp.ack site — else spans can never terminate"),
    # -- Pass 5: partition analyzer ------------------------------------------
    Rule("RS400", "state access whose partition key cannot be classified",
         Severity.ERROR, "partition",
         "sharded simulation needs every register/table access provably "
         "keyed; an unclassifiable index could touch any shard's state"),
    Rule("RS401", "structure keyed differently from the app partition key",
         Severity.ERROR, "partition",
         "state indexed by fields outside the app's partition key is "
         "touched by flows of different partitions — splitting those "
         "partitions across shards would split one structure's writers"),
    Rule("RS402", "declared shard class tighter than the inferred one",
         Severity.ERROR, "partition",
         "an app may relax its class (declare 'global' for safety) but "
         "never tighten it: a flow_local declaration over hash-indexed "
         "state would let the sharded runner split co-written state"),
    Rule("RS403", "global shard class declared without a shard_reason",
         Severity.ERROR, "partition",
         "global state serializes the sharded runner; the declaration "
         "must say why the state is genuinely cross-flow"),
    Rule("RS404", "shard_class declaration is not a known partition class",
         Severity.ERROR, "partition",
         "the lattice is flow_local < flow_hash < global; anything else "
         "is a typo the planner would misread"),
    Rule("RS405", "state inferred global but the app does not declare it",
         Severity.WARNING, "partition",
         "inference can prove state is cross-flow but not that this is "
         "intended; annotate shard_class = 'global' with a reason"),
    Rule("RS407", "partition_key not statically analyzable",
         Severity.WARNING, "partition",
         "the analyzer could not derive the key's packet-field inputs; "
         "the plan conservatively treats the app's state as global"),
]


def register(rules: Iterable[Rule]) -> Dict[str, Rule]:
    """Index rules by id, refusing duplicates at registration time.

    Rule ids are stable API; a collision (two passes claiming one id)
    must fail at import, not surface later as one rule's diagnostics
    silently wearing another rule's severity and docs.
    """
    table: Dict[str, Rule] = {}
    for r in rules:
        if r.id in table:
            raise ValueError(
                f"duplicate rule id {r.id!r}: "
                f"{table[r.id].title!r} vs {r.title!r}"
            )
        table[r.id] = r
    return table


RULES: Dict[str, Rule] = register(_RULES)
