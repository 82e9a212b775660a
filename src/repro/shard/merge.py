"""Deterministic merge of per-shard results into the reference stream.

Given N shard results plus one *ghost* result (a run that admitted no
flows — exactly the shared events every shard replicates), reassemble
what the single-process reference run would have produced:

* **the log** — each replica's sidecar log
  (:mod:`repro.shard.recorder`) first has its uid fields rewritten from
  local ints to the birth key ``(rank, idx)``, which is the same on
  every replica. Shared-rank entries (validated identical on every
  shard and the ghost, kept once) plus each shard's owned-flow entries
  are then sorted by ``(ts, rank, idx)`` — the order the reference
  produced them in — and that one merged log is walked once: a birth's
  global uid is its position among the births, records get those
  numbers back, gauge ops rebuild the running peaks (the reference's
  instantaneous level couples flows across shards, so no per-shard
  combination of final values can recover it), observations refill
  fresh reservoirs (decimation is order-dependent);
* **scalars** — counters, gauges, event and record counts obey
  ``merged = sum(shards) - (N-1) * ghost``: shared work is replicated N
  times and the ghost run measures exactly the replicated part once.

Every assumption is checked, not trusted: replicas that disagree on a
shared entry, a partition that does not cover the flow ranks exactly
once, a uid field that references no birth, or a record count that
does not add up raise :class:`MergeError` with the first divergence —
an honest failure beats a silently wrong merge.

The merged result is a :mod:`repro.identity` fingerprint — its
``trace_digest`` covers every reassembled record — so whether it
equals the reference is :func:`repro.identity.compare`'s call, not
this module's.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import identity
from repro.shard.recorder import K_BIRTH, K_GAUGE_OP, K_OBSERVATION, K_RECORD
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
#: operations in global order and taking the running maximum (labels
#: carry over unchanged).
PEAK_GAUGE_SOURCES = {
    "switch.buffer_peak_bytes": "switch.buffer_occupancy_bytes",
}


class MergeError(RuntimeError):
    """Shard results are inconsistent with a single merged reality."""


def _is_peak_gauge(ident: str) -> bool:
    return ident.split("{", 1)[0] in PEAK_GAUGE_SOURCES


# -- log reassembly -----------------------------------------------------------


def _replica_label(replica: int, num_shards: int) -> str:
    """Replicas are numbered shards first, then the ghost."""
    return "ghost" if replica == num_shards else f"shard {replica}"


def _first_diff(a: Sequence[Any], b: Sequence[Any]) -> str:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"index {i}: {x!r} != {y!r}"
    return f"length {len(a)} != {len(b)}"


def _rekey_uids(res: Dict[str, Any], label: str) -> List[tuple]:
    """One replica's log with every uid field rewritten from the local
    int to the ``(rank, idx)`` of the birth entry that allocated it.

    Local uids count a replica's own births, so the same packet has a
    different one on every replica; its birth key is the same on all of
    them, which is what lets shared entries be compared directly.
    """
    log = [tuple(entry) for entry in res["log"]]
    born = [(rank, idx) for _ts, rank, idx, kind, _p in log if kind == K_BIRTH]
    out: List[tuple] = []
    for entry in log:
        ts, rank, idx, kind, payload = entry
        if kind == K_RECORD:
            type_, fields = payload
            fields = dict(fields)
            for key, value in fields.items():
                if key in UID_FIELDS and isinstance(value, int):
                    if not 1 <= value <= len(born):
                        raise MergeError(
                            f"{label} rank {rank}: field {key}={value} "
                            "references a uid never born on that replica"
                        )
                    fields[key] = born[value - 1]
            entry = (ts, rank, idx, kind, [type_, fields])
        out.append(entry)
    return out


def _merge_stream(
    shards: Sequence[Dict[str, Any]], ghost: Dict[str, Any]
) -> List[tuple]:
    """Merge the replicas' ``(ts, rank, idx, kind, payload)`` logs.

    Entries of shared ranks must be identical on every shard and the
    ghost — the first divergence raises :class:`MergeError` naming the
    replica and showing the entry — and enter the merged log once; each
    shard then contributes the entries of the flow ranks it owns. The
    result is sorted by ``(ts, rank, idx)``, the order the reference
    produced them in.
    """
    flow_ranks = set(shards[0]["flow_ranks"])
    logs = [
        _rekey_uids(res, _replica_label(replica, len(shards)))
        for replica, res in enumerate(list(shards) + [ghost])
    ]
    merged = [e for e in logs[0] if e[1] not in flow_ranks]
    for replica in range(1, len(logs)):
        other = [e for e in logs[replica] if e[1] not in flow_ranks]
        if other != merged:
            raise MergeError(
                "shared log entries diverge between shard 0 and "
                f"{_replica_label(replica, len(shards))}: "
                f"{_first_diff(merged, other)}"
            )
    for res, log in zip(shards, logs):
        owned = set(res["owned_flow_ranks"])
        merged.extend(e for e in log if e[1] in owned)
    merged.sort(key=lambda e: e[:3])
    return merged


def _merge_log(
    shards: Sequence[Dict[str, Any]], ghost: Dict[str, Any]
) -> Tuple[List[TraceRecord], int, Dict[str, float], Dict[str, Histogram]]:
    """Merge the logs and replay the result in reference order.

    Returns the reference's trace records (global uids restored), the
    number of uids it allocated, its peak gauges and its histograms.
    """
    merged = _merge_stream(shards, ghost)
    # Numbered ahead of the walk: a record may sort before the birth it
    # names when both carry the same ``ts`` under different ranks.
    births = [(e[1], e[2]) for e in merged if e[3] == K_BIRTH]
    uid_of = {key: uid for uid, key in enumerate(births, start=1)}
    records: List[TraceRecord] = []
    level: Dict[str, float] = {}
    peak: Dict[str, float] = {}
    histograms: Dict[str, Histogram] = {}
    for ts, _rank, _idx, kind, payload in merged:
        if kind == K_RECORD:
            type_, fields = payload
            for key, value in fields.items():
                if key in UID_FIELDS and isinstance(value, tuple):
                    fields[key] = uid_of[value]
            records.append(TraceRecord(ts, type_, fields))
        elif kind == K_GAUGE_OP:
            # A subtract can never raise a maximum, so the running max
            # over the full add/set stream is the reference's peak.
            describe, op, amount = payload
            value = amount if op == "set" else level.get(describe, 0.0) + amount
            level[describe] = value
            if value > peak.get(describe, 0.0):
                peak[describe] = value
        elif kind == K_OBSERVATION:
            describe, value, max_samples = payload
            hist = histograms.get(describe)
            if hist is None:
                hist = histograms[describe] = Histogram(
                    describe, max_samples=max_samples
                )
            hist.observe(value)
    peaks: Dict[str, float] = {}
    for peak_name, source_name in PEAK_GAUGE_SOURCES.items():
        prefix = source_name + "{"
        for describe in level:
            if describe == source_name or describe.startswith(prefix):
                suffix = describe[len(source_name):]
                peaks[peak_name + suffix] = peak.get(describe, 0.0)
    return records, len(births), peaks, histograms


# -- partition checks ---------------------------------------------------------


def _validate_partition(shards: Sequence[Dict[str, Any]]) -> None:
    base = shards[0]
    for res in shards[1:]:
        for field in ("rank_count", "flow_ranks", "num_shards"):
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


# -- metric merge -------------------------------------------------------------


def _merge_scalar_section(
    section: str,
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
    peaks: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    replicas = len(shards)
    idents = set()
    for res in list(shards) + [ghost]:
        idents.update(res["metrics"][section])
    out: Dict[str, float] = {}
    for ident in sorted(idents):
        if section == "gauges" and _is_peak_gauge(ident):
            out[ident] = (peaks or {}).get(ident, 0.0)
            continue
        values = [res["metrics"][section].get(ident, 0.0) for res in shards]
        ghost_value = ghost["metrics"][section].get(ident, 0.0)
        out[ident] = sum(values) - (replicas - 1) * ghost_value
    return out


def _histogram_section(
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
    replayed: Dict[str, Histogram],
) -> Dict[str, Dict[str, float]]:
    idents = set()
    for res in list(shards) + [ghost]:
        idents.update(res["metrics"]["histograms"])
    return {
        ident: replayed[ident].summary() if ident in replayed
        else {"count": 0.0}
        for ident in sorted(idents)
    }


# -- top level ----------------------------------------------------------------


def merge_results(
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
) -> Dict[str, Any]:
    """Merge N shard results + the ghost into one reference-equivalent run.

    Returns the run's :func:`repro.identity.fingerprint_of` (``events``,
    ``records_emitted``, ``records_hashed``, ``trace_digest`` over every
    merged record, ``metrics`` as the full merged snapshot) plus
    ``records`` (the :class:`TraceRecord` list) and the counts of
    :func:`summary_results`.
    """
    counts = summary_results(shards, ghost)
    _validate_partition(list(shards) + [ghost])

    records, uids_allocated, peaks, histograms = _merge_log(shards, ghost)
    if counts["records_emitted"] != len(records):
        raise MergeError(
            f"merged record count {len(records)} != ghost-subtracted "
            f"records_emitted {counts['records_emitted']}"
        )

    metrics = {
        "counters": _merge_scalar_section("counters", shards, ghost),
        "gauges": _merge_scalar_section("gauges", shards, ghost, peaks),
        "histograms": _histogram_section(shards, ghost, histograms),
    }

    return {
        **counts,
        **identity.fingerprint_of(
            counts["events"], counts["records_emitted"],
            identity.TraceHasher(records), metrics,
        ),
        "uids_allocated": uids_allocated,
        "records": records,
    }


def summary_results(
    shards: Sequence[Dict[str, Any]],
    ghost: Dict[str, Any],
) -> Dict[str, Any]:
    """Count-level merge: all a capture-off (throughput-bench) run has.

    Without a captured log there is nothing to reassemble
    byte-for-byte; the ghost-subtraction identities on the counts still
    hold and are what a scaling bench needs.
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
    """Fingerprint a finished simulator nobody watched: the digest is
    over its retained ring (``python -m bench run`` calls this by name)."""
    return identity.fingerprint(sim)
