"""Guarded intentional bugs for mutation-testing the chaos fuzzer.

A fault-schedule fuzzer that never finds anything is indistinguishable
from one that cannot: its detection power must itself be tested. This
module holds a registry of *mutations* — named, intentionally-wrong
behaviours wired into protocol hot spots behind ``mutation_active``
guards. All mutations are off by default and the guard is a plain dict
lookup, so the unmutated fast path costs one hash probe.

The fuzzer's self-check (``repro.chaos.fuzz.mutation_self_check``, run
by CI) enables one mutation, fuzzes a bounded budget of schedules, and
requires a violation to be found *and* shrunk to a minimal reproducer;
with the mutation disabled, the same seeds must come up clean.

Mutations are process-global state. Always enable them through the
``seeded_bug`` context manager so a raising run cannot leak a mutation
into subsequent tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

#: Registry of known mutations: name -> what the guarded wrong behaviour
#: does (and where it lives). Guard sites reference these names verbatim.
MUTATIONS: Dict[str, str] = {
    # statestore/server.py _apply(): the chain-replica stale-write guard
    # is skipped, so a late or duplicated REPL_WRITE_REQ overwrites newer
    # state — value regression, exactly the §5.2 sequencing bug class.
    "skip_store_dedup": (
        "replicas apply stale REPL_WRITE_REQs instead of rejecting them "
        "(statestore.server.StateStoreNode._apply)"
    ),
    # core/engine.py _reinject_piggyback(): the hold-nonce dedup is
    # bypassed, so a duplicated LEASE_NEW_ACK re-injects its held packet
    # and the application update is applied twice — a genuine engine bug
    # the fuzzer originally surfaced (duplicate-storm + forced lease
    # expiry), re-introducible here as its regression witness.
    "skip_hold_dedup": (
        "duplicated lease acks re-process their piggybacked packet "
        "(core.engine.RedPlaneEngine._reinject_piggyback)"
    ),
    # core/engine.py _handle_lease_new_ack(): the granted-seq guard is
    # bypassed, so a lease grant snapshotted before the switch's
    # in-flight writes landed regresses local state and the sequence
    # counter — the second engine bug the fuzzer originally surfaced.
    "skip_lease_install_guard": (
        "stale lease grants overwrite newer switch-local state "
        "(core.engine.RedPlaneEngine._handle_lease_new_ack)"
    ),
}

_active: Dict[str, bool] = {}


def mutation_active(name: str) -> bool:
    """The guard probe: is the named mutation currently enabled?"""
    return _active.get(name, False)


def enable(name: str) -> None:
    if name not in MUTATIONS:
        raise KeyError(
            f"unknown mutation {name!r}; known: {', '.join(sorted(MUTATIONS))}")
    _active[name] = True


def disable(name: str) -> None:
    _active.pop(name, None)


@contextmanager
def seeded_bug(name: str) -> Iterator[None]:
    """Enable a mutation for the duration of a ``with`` block, leak-proof."""
    enable(name)
    try:
        yield
    finally:
        disable(name)
