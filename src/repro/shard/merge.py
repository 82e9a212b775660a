"""Deterministic merge of per-shard results into the reference stream.

Given N shard results plus one *ghost* result (a run that admitted no
flows — exactly the shared events every shard replicates), reassemble
what the single-process reference run would have produced:

* **trace stream** — shared-rank records (validated identical on every
  shard, kept once) plus each shard's owned-flow records, globally
  sorted by ``(ts, rank, within-rank index)``;
* **uids** — per-shard uid-birth logs merged with the same comparator;
  a local uid's global value is its birth's position in the merged
  order, and every uid-bearing trace field is rewritten;
* **metrics** — counters and gauges obey
  ``merged = sum(shards) - (N-1) * ghost`` (shared instruments are
  replicated N times and the ghost run measures exactly the replicated
  part once); peak-tracking gauges are instead recomputed by replaying
  their source gauge's operation log in global order (the reference's
  instantaneous level couples flows across shards, so no per-shard
  combination of final values can recover it); histogram summaries are
  rebuilt by replaying the globally merged observation log through a
  fresh reservoir, because decimation is order-dependent.

Every assumption is checked, not trusted: shards that disagree on a
shared record, a birth, or an instrument raise :class:`MergeError`
with the first divergence — an honest failure beats a silently wrong
merge.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import Histogram
from repro.telemetry.trace import TraceRecord

#: Trace fields holding packet-span uids (rewritten during the merge).
#: ``cause`` is the optional originating-request uid an ack record
#: carries (see ``repro.core.engine``).
UID_FIELDS = frozenset({"uid", "parent", "req_uid", "parent_uid", "cause"})

#: Peak-tracking gauges couple flows across shards: the reference's
#: instantaneous level (all flows interleaved) can exceed every
#: per-shard peak, so neither max-across-shards nor sum-minus-ghost is
#: right. Each peak is recomputed by replaying its *source* gauge's
#: operation stream in global order and taking the running maximum
#: (labels carry over unchanged; a subtract can never raise a maximum,
#: so the running max over the full add/set stream is exact).
PEAK_GAUGE_SOURCES = {
    "switch.buffer_peak_bytes": "switch.buffer_occupancy_bytes",
}

#: Metric families excluded from identity comparison: per-shard
#: bookkeeping, cache internals, and observation-layer output.
NON_IDENTITY_PREFIXES = ("shard.", "fastpath.", "observe.")


class MergeError(RuntimeError):
    """Shard results are inconsistent with a single merged reality."""


def _is_peak_gauge(ident: str) -> bool:
    return ident.split("{", 1)[0] in PEAK_GAUGE_SOURCES


# -- shared/owned log reassembly ----------------------------------------------


def _replica_label(replica: int, num_shards: int) -> str:
    """Replicas are numbered shards first, then the ghost."""
    return "ghost" if replica == num_shards else f"shard {replica}"


def _merge_stream(
    stream: str,
    key: str,
    rank_at: int,
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
    transform: Optional[Callable[[tuple, int], tuple]] = None,
) -> List[tuple]:
    """Merge one ``(..., ts, rank, idx, ...)`` log across replicas.

    ``res[key]`` is the log and ``rank_at`` the position of its rank
    column (``ts`` sits just before it, ``idx`` just after). Entries of
    shared ranks must be identical on every shard and the ghost — the
    first divergence raises :class:`MergeError` naming ``stream`` and
    the replica — and enter the merged log once; each shard then
    contributes the entries of the flow ranks it owns. The result is
    sorted by ``(ts, rank, idx)``, the order the reference produced them
    in. ``transform(entry, replica)`` (replica ``len(shards)`` is the
    ghost) rewrites entries before they are compared.
    """
    flow_ranks = set(shards[0]["flow_ranks"])
    replicas = list(shards) + [ghost]

    def select(replica: int, wanted: Callable[[int], bool]) -> List[tuple]:
        picked = (
            tuple(e) for e in replicas[replica][key] if wanted(e[rank_at])
        )
        if transform is None:
            return list(picked)
        return [transform(e, replica) for e in picked]

    def shared(rank: int) -> bool:
        return rank not in flow_ranks

    merged = select(0, shared)
    for replica in range(1, len(replicas)):
        other = select(replica, shared)
        if other != merged:
            raise MergeError(
                f"shared {stream} diverge between shard 0 and "
                f"{_replica_label(replica, len(shards))}: "
                f"{_first_diff(merged, other)}"
            )
    for replica, res in enumerate(shards):
        merged.extend(
            select(replica, set(res["owned_flow_ranks"]).__contains__)
        )
    merged.sort(key=lambda e: e[rank_at - 1:rank_at + 2])
    return merged


# -- uid renumbering ----------------------------------------------------------


def _merge_births(
    shards: Sequence[Dict[str, Any]], ghost: Dict[str, Any]
) -> Tuple[List[Tuple[float, int, int]], List[Dict[int, int]]]:
    """Merge uid-birth logs; returns (merged births, per-shard uid maps).

    The merged position (1-based) of a birth is its global uid.
    """
    entries = _merge_stream("uid births", "births", 1, shards, ghost)
    position = {
        (rank, idx): uid
        for uid, (_ts, rank, idx) in enumerate(entries, start=1)
    }
    uid_maps: List[Dict[int, int]] = []
    for res in shards:
        mapping = {
            local: position[(rank, idx)]
            for local, (_ts, rank, idx) in enumerate(
                (tuple(b) for b in res["births"]), start=1
            )
        }
        uid_maps.append(mapping)
    return entries, uid_maps


def _first_diff(a: Sequence[Any], b: Sequence[Any]) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"index {i}: {x!r} != {y!r}"
    return f"length {len(a)} != {len(b)}"


def _remap_fields(
    fields: Dict[str, Any], uid_map: Dict[int, int], where: str
) -> Dict[str, Any]:
    out = dict(fields)
    for key, value in fields.items():
        if key in UID_FIELDS and isinstance(value, int):
            mapped = uid_map.get(value)
            if mapped is None:
                raise MergeError(
                    f"{where}: field {key}={value} references a uid "
                    "never born on that shard"
                )
            out[key] = mapped
    return out


# -- trace merge --------------------------------------------------------------


def _validate_partition(shards: Sequence[Dict[str, Any]]) -> None:
    base = shards[0]
    for res in shards[1:]:
        for field in ("rank_count", "flow_ranks", "num_shards",
                      "trace_maxlen"):
            if res[field] != base[field]:
                raise MergeError(
                    f"shard {res['shard']} disagrees on {field}: "
                    f"{res[field]!r} != {base[field]!r}"
                )
    flow_ranks = set(base["flow_ranks"])
    owned_union: set = set()
    for res in shards:
        owned = set(res["owned_flow_ranks"])
        overlap = owned_union & owned
        if overlap:
            raise MergeError(
                f"flow rank(s) {sorted(overlap)[:4]} owned by more than "
                "one shard"
            )
        owned_union |= owned
    if owned_union != flow_ranks:
        missing = sorted(flow_ranks - owned_union)[:4]
        raise MergeError(
            f"flow rank(s) {missing} owned by no shard "
            "(population/assignment mismatch)"
        )


def _merge_rows(
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
    uid_maps: Sequence[Dict[int, int]],
    ghost_uid_map: Dict[int, int],
) -> List[Tuple[float, int, int, str, Dict[str, Any]]]:
    maps = list(uid_maps) + [ghost_uid_map]

    def remap(row: tuple, replica: int) -> tuple:
        ts, rank, idx, type_, fields = row
        where = f"{_replica_label(replica, len(shards))} rank {rank}"
        return (ts, rank, idx, type_,
                _remap_fields(fields, maps[replica], where))

    return _merge_stream("trace records", "rows", 1, shards, ghost, remap)


def trace_digest(records: Sequence[TraceRecord]) -> str:
    """Same digest formula as :func:`repro.fastpath.bench._trace_digest`."""
    h = hashlib.sha256()
    for record in records:
        h.update(
            repr((record.ts, record.type, tuple(record.fields.items())))
            .encode()
        )
    return h.hexdigest()


def rows_to_records(
    rows: Sequence[Tuple[float, int, int, str, Dict[str, Any]]]
) -> List[TraceRecord]:
    return [TraceRecord(ts, type_, fields) for ts, _r, _i, type_, fields in rows]


# -- metric merge -------------------------------------------------------------


def _merge_scalar_section(
    section: str,
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
    peaks: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    replicas = len(shards)
    keys: List[str] = []
    seen = set()
    for res in list(shards) + [ghost]:
        for ident in res["metrics"][section]:
            if ident not in seen:
                seen.add(ident)
                keys.append(ident)
    out: Dict[str, float] = {}
    for ident in sorted(keys):
        if section == "gauges" and _is_peak_gauge(ident):
            out[ident] = (peaks or {}).get(ident, 0.0)
            continue
        values = [res["metrics"][section].get(ident, 0.0) for res in shards]
        ghost_value = ghost["metrics"][section].get(ident, 0.0)
        out[ident] = sum(values) - (replicas - 1) * ghost_value
    return out


def _replay_peak_gauges(
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
) -> Dict[str, float]:
    """Recompute peak gauges from the merged gauge-operation log.

    The log merged by :func:`_merge_stream` is in the order the
    reference mutated in, so the running maximum of each source gauge's
    level is the reference's peak.
    """
    entries = _merge_stream("gauge operations", "gauge_ops", 2, shards, ghost)
    level: Dict[str, float] = {}
    peak: Dict[str, float] = {}
    for describe, _ts, _rank, _idx, op, amount in entries:
        value = amount if op == "set" else level.get(describe, 0.0) + amount
        level[describe] = value
        if value > peak.get(describe, 0.0):
            peak[describe] = value
    out: Dict[str, float] = {}
    for peak_name, source_name in PEAK_GAUGE_SOURCES.items():
        prefix = source_name + "{"
        for describe in level:
            if describe == source_name or describe.startswith(prefix):
                suffix = describe[len(source_name):]
                out[peak_name + suffix] = peak.get(describe, 0.0)
    return out


def _merge_histograms(
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
) -> Dict[str, Dict[str, float]]:
    """Rebuild reference reservoirs from the merged observation log.

    The replay feeds a fresh :class:`Histogram` in the order of the log
    merged by :func:`_merge_stream` — the order the reference observed
    in — so decimation makes the same choices byte for byte.
    """
    entries = _merge_stream(
        "histogram observations", "observations", 2, shards, ghost
    )
    replay: Dict[str, Histogram] = {}
    for describe, _ts, _rank, _idx, value, max_samples in entries:
        hist = replay.get(describe)
        if hist is None:
            hist = Histogram(describe, max_samples=max_samples)
            replay[describe] = hist
        hist.observe(value)
    out: Dict[str, Dict[str, float]] = {}
    idents = set()
    for res in list(shards) + [ghost]:
        idents.update(res["metrics"]["histograms"])
    for ident in sorted(idents):
        hist = replay.get(ident)
        out[ident] = hist.summary() if hist is not None else {"count": 0.0}
    return out


def strip_non_identity(snapshot: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Drop metric families excluded from the identity contract."""
    return {
        section: {
            ident: value
            for ident, value in entries.items()
            if not ident.startswith(NON_IDENTITY_PREFIXES)
        }
        for section, entries in snapshot.items()
    }


# -- top level ----------------------------------------------------------------


def merge_results(
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
) -> Dict[str, Any]:
    """Merge N shard results + the ghost into one reference-equivalent run.

    Returns a dict with ``events``, ``records_emitted``, ``trace``
    (ring-tail :class:`TraceRecord` list), ``trace_digest``, ``metrics``
    (full merged snapshot), ``rng_draws``, and bookkeeping counts.
    """
    if not shards:
        raise MergeError("no shard results to merge")
    if not ghost.get("ghost"):
        raise MergeError("ghost result was not run in ghost mode")
    _validate_partition(list(shards) + [ghost])
    replicas = len(shards)

    _births, uid_maps = _merge_births(shards, ghost)
    # The ghost's births are all shared (validated above), so its map
    # falls out of the shared prefix of the merged order directly.
    flow_ranks = set(shards[0]["flow_ranks"])
    shared_positions = {
        (rank, idx): uid
        for uid, (_ts, rank, idx) in enumerate(_births, start=1)
        if rank not in flow_ranks
    }
    ghost_uid_map = {
        local: shared_positions[(rank, idx)]
        for local, (_ts, rank, idx) in enumerate(
            (tuple(b) for b in ghost["births"]), start=1
        )
    }

    rows = _merge_rows(shards, ghost, uid_maps, ghost_uid_map)
    records = rows_to_records(rows)
    maxlen = shards[0]["trace_maxlen"]
    ring_tail = records[-maxlen:] if maxlen else records

    events = (
        sum(res["events_executed"] for res in shards)
        - (replicas - 1) * ghost["events_executed"]
    )
    records_emitted = (
        sum(res["records_emitted"] for res in shards)
        - (replicas - 1) * ghost["records_emitted"]
    )
    if records_emitted != len(rows):
        raise MergeError(
            f"merged record count {len(rows)} != ghost-subtracted "
            f"records_emitted {records_emitted}"
        )

    peaks = _replay_peak_gauges(shards, ghost)
    metrics = {
        "counters": _merge_scalar_section("counters", shards, ghost),
        "gauges": _merge_scalar_section("gauges", shards, ghost, peaks),
        "histograms": _merge_histograms(shards, ghost),
    }

    return {
        "num_shards": replicas,
        "events": events,
        "records_emitted": records_emitted,
        "uids_allocated": len(_births),
        "trace": ring_tail,
        "trace_digest": trace_digest(ring_tail),
        "records": records,
        "metrics": metrics,
        "rng_draws": sum(res["rng_draws"] for res in shards)
        + ghost["rng_draws"],
        "flows_injected": sum(res["flows_injected"] for res in shards),
        "final_now": max(res["final_now"] for res in shards),
    }


def summary_results(
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
) -> Dict[str, Any]:
    """Count-level merge for capture-off (throughput-bench) runs.

    Without captured rows, births, and operation logs there is nothing
    to reassemble byte-for-byte; the ghost-subtraction identities on the
    counts still hold and are what a scaling bench needs.
    """
    if not shards:
        raise MergeError("no shard results to merge")
    if not ghost.get("ghost"):
        raise MergeError("ghost result was not run in ghost mode")
    replicas = len(shards)
    return {
        "num_shards": replicas,
        "events": (
            sum(res["events_executed"] for res in shards)
            - (replicas - 1) * ghost["events_executed"]
        ),
        "records_emitted": (
            sum(res["records_emitted"] for res in shards)
            - (replicas - 1) * ghost["records_emitted"]
        ),
        "rng_draws": sum(res["rng_draws"] for res in shards)
        + ghost["rng_draws"],
        "flows_injected": sum(res["flows_injected"] for res in shards),
        "final_now": max(res["final_now"] for res in shards),
    }


def reference_result(sim: Any) -> Dict[str, Any]:
    """Snapshot a finished reference simulator for identity comparison."""
    ring = sim.tracer.tail()
    return {
        "events": sim.events_executed,
        "records_emitted": sim.tracer.records_emitted,
        "trace": ring,
        "trace_digest": trace_digest(ring),
        "metrics": sim.metrics.snapshot(),
    }


def identity_report(
    reference: Dict[str, Any], merged: Dict[str, Any]
) -> Dict[str, bool]:
    """Axis-by-axis identity verdicts, mirroring the fastpath A/B gate.

    Metrics are compared minus the ``shard.*`` / ``fastpath.*`` /
    ``observe.*`` families (per-shard bookkeeping by construction); the
    trace is compared byte-for-byte via canonical JSONL.
    """
    ref_trace = b"".join(
        (r.to_json() + "\n").encode() for r in reference["trace"]
    )
    merged_trace = b"".join(
        (r.to_json() + "\n").encode() for r in merged["trace"]
    )
    ref_metrics = json.dumps(
        strip_non_identity(reference["metrics"]), sort_keys=True
    )
    merged_metrics = json.dumps(
        strip_non_identity(merged["metrics"]), sort_keys=True
    )
    return {
        "events": reference["events"] == merged["events"],
        "records_emitted":
            reference["records_emitted"] == merged["records_emitted"],
        "trace": ref_trace == merged_trace,
        "trace_digest":
            reference["trace_digest"] == merged["trace_digest"],
        "metrics": ref_metrics == merged_metrics,
    }
