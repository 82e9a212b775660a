"""The identity oracle: what "two runs are identical" means, decided once.

Flow-cache, sharded and observed runs promise the reference's bytes.
The only module in ``src/`` that hashes a trace or compares two runs:
every gate (``repro.tools fastpath --diff``, ``repro.tools shard diff``,
:func:`repro.shard.run_identity`) is :func:`compare` of two fingerprints.

A fingerprint is ``{events, records_emitted, records_hashed,
trace_digest, metrics}``. The digest is a SHA-256 over
``repr((ts, type, tuple(fields.items())))`` of each record in emission
order — timestamps, types, and field *order* (it is what ``to_json``
writes). :func:`watch` feeds it from ``Tracer.on_emit`` as the run
goes, so it covers every record ever emitted whatever the ring holds;
``on_emit`` is a single slot (the shard recorder owns it on shards,
whose records reach the digest through the merge instead). A finished
simulator nobody watched can only offer its retained ring, and
``records_hashed`` says so: :func:`compare` reports ``trace_complete``
only when both sides hashed every record they emitted.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, Optional

#: Metric families excluded from identity comparison: per-shard
#: bookkeeping, cache internals, and observation-layer output.
NON_IDENTITY_PREFIXES = ("shard.", "fastpath.", "observe.")


class TraceHasher:
    """Streaming trace digest; callable, so it fits ``Tracer.on_emit``."""

    def __init__(self, records: Iterable[Any] = ()) -> None:
        self._sha = hashlib.sha256()
        self.records_hashed = 0
        self.feed(records)

    def feed(self, records: Iterable[Any]) -> None:
        """One loop, no frame per record: ``bench`` times this on a ring."""
        for record in records:
            self._sha.update(
                repr((record.ts, record.type, tuple(record.fields.items())))
                .encode()
            )
            self.records_hashed += 1

    def __call__(self, record: Any) -> None:
        self.feed((record,))

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def watch(sim: Any) -> TraceHasher:
    """Hash every record ``sim`` emits from now on; returns the hasher
    to hand to :func:`fingerprint` when the run is over."""
    if sim.tracer.on_emit is not None:
        raise RuntimeError(
            "Tracer.on_emit is already taken "
            f"({sim.tracer.on_emit!r}); it is a single slot"
        )
    hasher = TraceHasher()
    sim.tracer.on_emit = hasher
    return hasher


def fingerprint_of(events: int, records_emitted: int, hasher: TraceHasher,
                   metrics: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """A fingerprint from its parts (the shard merge builds one from the
    records it reassembled)."""
    return {
        "events": events,
        "records_emitted": records_emitted,
        "records_hashed": hasher.records_hashed,
        "trace_digest": hasher.hexdigest(),
        "metrics": metrics,
    }


def fingerprint(sim: Any, hasher: Optional[TraceHasher] = None) -> Dict[str, Any]:
    """Fingerprint a finished simulator: streamed when ``hasher``
    watched the run, otherwise over the records the ring retained."""
    if hasher is None:
        hasher = TraceHasher(sim.tracer.tail())
    return fingerprint_of(
        sim.events_executed, sim.tracer.records_emitted, hasher,
        sim.metrics.snapshot(),
    )


def _identity_metrics(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Canonical JSON of a snapshot minus the non-identity families."""
    return json.dumps(
        {
            section: {
                ident: value for ident, value in entries.items()
                if not ident.startswith(NON_IDENTITY_PREFIXES)
            }
            for section, entries in snapshot.items()
        },
        sort_keys=True,
    )


def compare(ref: Dict[str, Any], cand: Dict[str, Any]) -> Dict[str, bool]:
    """Axis-by-axis identity verdicts for two fingerprints."""
    return {
        "events": ref["events"] == cand["events"],
        "records_emitted": ref["records_emitted"] == cand["records_emitted"],
        "trace": ref["trace_digest"] == cand["trace_digest"],
        "metrics":
            _identity_metrics(ref["metrics"])
            == _identity_metrics(cand["metrics"]),
        "trace_complete": all(
            side["records_hashed"] == side["records_emitted"]
            for side in (ref, cand)
        ),
    }
