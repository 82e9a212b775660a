"""The invalidation bus: how mutations reach the fast-path caches.

Compiled fast-path state (flow-cache entries, and any future compiled
artifact) is only sound while the inputs it was compiled from hold. The
bus is the single channel those inputs announce changes on: every
mutating site that could invalidate a compiled entry publishes a *scope*
here, and every cache entry carries the generation stamp of the scopes
it depends on. Validity is then one integer comparison per packet —
there is no per-entry subscription bookkeeping to maintain on the hot
path.

Scopes (the rows of the invalidation matrix in docs/PERFORMANCE.md):

``table``
    Control-plane table mutations. Published conservatively by
    :meth:`repro.switch.control_plane.SwitchControlPlane.submit` — a CP
    operation is an opaque callable that may install or remove entries.
``register``
    Register writes from outside the packet path (``cp_write`` during
    state migration/initialization). Flow-cache replay reads every
    register *live* — an entry caches classification, partition key,
    and flow index, never register contents — so this scope is
    observability-only and deliberately NOT in :data:`FLOW_SCOPES`:
    each new-flow state install would otherwise flush every entry.
``lease``
    Flow-table lifecycle: index reclamation
    (:meth:`RedPlaneEngine.reclaim_idle_flows`), forced lease expiry,
    and shard-ownership migration during store failover. Cached flow
    indices die here. Store crash recovery
    (:meth:`~repro.statestore.server.StateStoreNode.restart`) publishes
    it too: a cached lease decision may predate the crash, and a
    non-durable backend no longer holds the lease's record.
``snapshot``
    Snapshot rotation in bounded-inconsistency deployments; also
    published by store crash recovery, which invalidates any snapshot
    state the restarted backend did not replay.
``chaos``
    Every fault injected or cleared by a failure schedule. Chaos
    campaigns flush all compiled state, so an injected gray failure can
    never race a stale cache entry.

Publishing any of the scopes in :data:`FLOW_SCOPES` bumps the combined
``flow_gen`` that flow-cache entries stamp; per-scope counts are kept
for ``repro.tools fastpath`` stats and the declared
``fastpath.invalidations{scope}`` metric.
"""

from __future__ import annotations

from typing import Dict

#: Every legal scope, in display order.
SCOPES = ("table", "register", "lease", "snapshot", "chaos")

#: Scopes whose publication invalidates flow-cache entries. ``register``
#: is absent by design: replay reads registers live. (Route and belief
#: churn never reaches the bus: :class:`~repro.net.routing.L3Switch`
#: versions its own route cache.)
FLOW_SCOPES = frozenset({"table", "lease", "snapshot", "chaos"})


class InvalidationBus:
    """Scoped generation counters linking mutators to compiled caches."""

    __slots__ = ("flow_gen", "counts")

    def __init__(self) -> None:
        #: Combined generation over :data:`FLOW_SCOPES`; flow-cache
        #: entries are valid iff their stamp equals the current value.
        self.flow_gen = 0
        self.counts: Dict[str, int] = {scope: 0 for scope in SCOPES}

    def publish(self, scope: str) -> None:
        """Announce a mutation in ``scope``; stale entries die lazily."""
        counts = self.counts
        if scope not in counts:
            raise ValueError(f"unknown invalidation scope {scope!r}")
        counts[scope] += 1
        if scope in FLOW_SCOPES:
            self.flow_gen += 1
