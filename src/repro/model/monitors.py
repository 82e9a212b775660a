"""Online invariant monitors for live deployments.

The model checker (Appendix C) verifies the protocol over all
interleavings of a small model; this monitor checks the same invariants
*on a running simulation* — the runtime-verification counterpart, usable
under full-scale workloads where exhaustive checking is impossible.

Monitored invariants:

* **single owner** — at most one live switch believes it holds a flow's
  lease (``SingleOwnerInvariant``);
* **lease agreement** — that belief ends strictly before the acking
  store's record of the grant (``LeaseAgreement``, the §5.3 margin);
* **sequence monotonicity** — a replica's applied sequence number for a
  flow never decreases (``SequenceMonotonicity``, Fig 6b);
* **no value regression** — a record's first value never falls below one
  the replica held before (``ValueRegression``, counter-style apps).

The first two are checked where an engine installs or renews a lease
(``RedPlaneEngine._extend_lease``), the last two where a replica writes a
record (``StateStoreNode._commit_and_propagate``, which every request,
drained request and chain update ends in, and ``restart``). These sites
are complete: a switch comes to believe it owns a flow only at an
install (a belief otherwise only lapses), so a double owner can only
begin there; a record changes only where a replica writes it, so a
regression can only begin at a write. Each violation is recorded at the
instant it begins.

Like ``Simulator.on_event``, the hooks are called (through the store's
and engine's ``monitor`` attribute), never scheduled, and only read: no
randomness, no trace record, no metric. An unmonitored run pays one
``is None`` test per site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.packet import FlowKey
from repro.net.simulator import Simulator
from repro.statestore.server import FlowRecord, StateStoreNode


@dataclass
class Violation:
    time_us: float
    invariant: str
    detail: str


class InvariantMonitor:
    """Checks the protocol invariants at the events that can break them."""

    def __init__(
        self,
        sim: Simulator,
        stores: List[StateStoreNode],
        engines: Optional[list] = None,
        track_monotonic_values: bool = False,
    ) -> None:
        self.sim = sim
        self.engines = list(engines or [])
        self.track_monotonic_values = track_monotonic_values
        self.violations: List[Violation] = []
        self._last_seq: Dict[Tuple[str, FlowKey], int] = {}
        self._last_vals: Dict[Tuple[str, FlowKey], List[int]] = {}
        self._store_by_ip = {store.ip: store for store in stores}
        for node in [*stores, *self.engines]:
            node.monitor = self

    def _violate(self, invariant: str, detail: str) -> None:
        self.violations.append(Violation(self.sim.now, invariant, detail))

    def _sample(self, store: StateStoreNode, key: FlowKey,
                rec: FlowRecord) -> None:
        """``store`` has just written ``rec``: its sequence number and
        (when tracked) first value must not fall below earlier ones.
        ``bench/trace.py`` times this method as the ``model`` layer."""
        tag = (store.name, key)
        prev = self._last_seq.get(tag)
        if prev is not None and rec.last_seq < prev:
            self._violate("SequenceMonotonicity",
                          f"{store.name} {key}: {prev} -> {rec.last_seq}")
        self._last_seq[tag] = rec.last_seq
        if self.track_monotonic_values and rec.vals:
            prev_vals = self._last_vals.get(tag)
            if prev_vals is not None and rec.vals[0] < prev_vals[0]:
                self._violate("ValueRegression",
                              f"{store.name} {key}: {prev_vals} -> {rec.vals}")
            self._last_vals[tag] = list(rec.vals)

    def lease_installed(self, engine, key: FlowKey, idx: int,
                        store_ip: int) -> None:
        """``engine`` has just installed or renewed its lease on ``key`` on
        an ack from ``store_ip``. The switch-side expiry sits a margin
        below the grant (§5.3), so a second live believer is a genuine
        violation, not clock skew."""
        expiry = engine.reg_lease_expiry.cp_read(idx)
        store = self._store_by_ip.get(store_ip)
        if store is not None and not store.failed:
            rec = store.records.get(key)
            granted = rec.lease_expiry if rec is not None else 0.0
            if expiry >= granted:
                self._violate("LeaseAgreement",
                              f"{engine.switch.name} {key}: believes "
                              f"{expiry} >= {store.name} grant {granted}")
        holders = [other.switch.name for other in self.engines
                   if not other.switch.failed and other.lease_valid(key)]
        if len(holders) > 1:
            self._violate("SingleOwnerInvariant", f"{key}: held by {holders}")

    # -- results ------------------------------------------------------------------

    def ok(self) -> bool:
        return not self.violations

    def report(self) -> str:
        if self.ok():
            return "OK — no violations"
        lines = [f"{len(self.violations)} violation(s):"]
        for violation in self.violations[:20]:
            lines.append(
                f"  t={violation.time_us:.1f}us {violation.invariant}: "
                f"{violation.detail}"
            )
        return "\n".join(lines)
