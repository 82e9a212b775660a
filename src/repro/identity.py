"""The identity oracle: what "two runs are identical" means, decided once.

Flow-cache, sharded and observed runs promise the reference's bytes.
The only module in ``src/`` that hashes a trace or compares two runs:
every gate (``repro.tools fastpath --diff``, ``repro.tools shard diff``,
:func:`repro.shard.run_identity`) is :func:`compare` of two fingerprints.

A fingerprint is ``{events, records_emitted, records_hashed,
trace_digest, metrics}``. The digest is a SHA-256 over
``repr((ts, type, tuple(fields.items())))`` of each record in emission
order — timestamps, types, and field *order* (it is what ``to_json``
writes). :func:`watch` joins the hasher to ``Tracer.sinks`` as the run
goes, so it covers every record ever emitted whatever the ring holds
(a shard's records reach the digest through the merge instead). A
finished simulator nobody watched can only offer its retained ring, and
``records_hashed`` says so: :func:`compare` reports ``trace_complete``
only when both sides hashed every record they emitted. A simulator that
keeps no ring (``trace_ring=0``, as the shard runner builds them) has
nothing to offer, so :func:`fingerprint` refuses it without a hasher.

A record is rendered through a %-template built once per key tuple
(:func:`record_template`), byte-equal to that ``repr`` without building
the pairs (``tests/test_identity.py`` checks it against the formula).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, Optional, Tuple

#: Metric families excluded from identity comparison: per-shard
#: bookkeeping.
NON_IDENTITY_PREFIXES = ("shard.",)


def record_template(keys: Tuple[str, ...]) -> str:
    """The %-template that renders ``(ts, type, *values)`` as
    ``repr((ts, type, tuple(zip(keys, values))))``, for records whose
    key tuple is ``keys``. A pure function of ``keys``: each key's repr
    is baked in (its ``%`` escaped), each value goes in through ``%r``,
    and a one-pair tuple keeps its trailing comma."""
    pairs = ", ".join(
        "(%s, %%r)" % repr(key).replace("%", "%%") for key in keys)
    if len(keys) == 1:
        pairs += ","
    return "(%r, %r, (" + pairs + "))"


class TraceHasher:
    """Streaming trace digest; callable, so it joins ``Tracer.sinks``."""

    def __init__(self, records: Iterable[Any] = ()) -> None:
        self._sha = hashlib.sha256()
        self.records_hashed = 0
        #: :func:`record_template` by key tuple: one entry per record
        #: shape, and a record's ``keys`` is its shape's shared tuple.
        self._templates: Dict[Tuple[str, ...], str] = {}
        self.feed(records)

    def _template(self, keys: Tuple[str, ...]) -> str:
        template = self._templates[keys] = record_template(keys)
        return template

    def feed(self, records: Iterable[Any]) -> None:
        """One loop, no frame per record: ``bench`` times this on a ring."""
        update = self._sha.update
        templates = self._templates
        n = 0
        for record in records:
            keys = record[0]  # a record is the row (keys, ts, type, *values)
            template = templates.get(keys) or self._template(keys)
            update((template % record[1:]).encode())
            n += 1
        self.records_hashed += n

    def __call__(self, record: Any) -> None:
        self.feed((record,))

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def watch(sim: Any) -> TraceHasher:
    """Hash every record ``sim`` emits from now on; returns the hasher
    to hand to :func:`fingerprint` when the run is over."""
    hasher = TraceHasher()
    sim.tracer.sinks.append(hasher)
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
    watched the run, otherwise over the records the ring retained.
    Raises ``ValueError`` for a tracer that keeps no ring
    (``trace_ring=0``) and no ``hasher``: there is nothing to digest."""
    if hasher is None:
        if sim.tracer.maxlen == 0:
            raise ValueError("cannot fingerprint a run with no ring and "
                             "no hasher: watch it with identity.watch")
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
