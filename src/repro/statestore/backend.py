"""Pluggable storage backends for the state store.

:class:`~repro.statestore.server.StateStoreNode` is the *transport*
layer of the store — RPC handling, lease arbitration, and chain
orchestration. Where the per-flow records actually live is a backend
decision, expressed by the duck-typed :class:`StateStoreBackend`
contract below. Two implementations ship with the repo:

========================  ========  ====================================
backend                   durable   survives
========================  ========  ====================================
:class:`InMemoryBackend`  no        process restarts only (DRAM model)
``wal.WALBackend``        yes       full crash: replays log + snapshot
========================  ========  ====================================

Contract semantics (the conformance suite in ``tests/test_backends.py``
holds every backend to these):

* **ordered mapping** — ``records`` is a Mapping whose iteration order is
  insertion order; the invariant monitors and verdict reports iterate it
  into ordered effects, so backends must not expose set-ordered views.
* **idempotent writes** — ``commit(key, rec)`` is called after *every*
  record mutation, before any reply or chain propagation leaves the
  node. Committing the same record state twice must be harmless: a
  retransmitted request re-commits at every replica.
* **fail-safe durability** — ``wipe()`` models the crash (all volatile
  state is gone); ``recover()`` rebuilds whatever the medium preserved
  and returns the number of records restored. Because commit runs
  before the reply, any state a switch ever saw acknowledged is either
  recovered or the backend is honestly non-durable (returns 0).
* **volatile transport state** — buffered ``pending`` requests are a
  transport concern and deliberately not the backend's to preserve
  (§4.2: inputs may be lost, outputs may be lost; acknowledged state
  may not).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.protocol import RedPlaneMessage
from repro.net.packet import FlowKey


@dataclass
class FlowRecord:
    """Everything the store knows about one flow."""

    vals: List[int] = field(default_factory=list)
    initialized: bool = False
    last_seq: int = 0
    owner_ip: Optional[int] = None
    lease_expiry: float = 0.0
    #: Buffered lease requests from other switches (head node only), as
    #: ``(msg, requester_ip, origin_uid)`` — the origin uid is the span id
    #: of the request packet, threaded into the eventual reply's lineage.
    #: A list: it is empty on almost every record, and an empty deque
    #: would cost ≈ 700 bytes more per record.
    pending: List[Tuple[RedPlaneMessage, int, int]] = field(
        default_factory=list)
    #: Bounded-inconsistency snapshots: slot index -> (value, epoch seq).
    snapshot_vals: Dict[int, int] = field(default_factory=dict)
    snapshot_seqs: Dict[int, int] = field(default_factory=dict)

    def lease_active(self, now: float) -> bool:
        return self.owner_ip is not None and self.lease_expiry > now

    def held_by_other(self, requester_ip: int, now: float) -> bool:
        return self.lease_active(now) and self.owner_ip != requester_ip


class StateStoreBackend:
    """Base class and contract for state-store storage backends.

    The transport layer only ever talks to a backend through the methods
    below; subclasses override what their medium requires and inherit
    no-op defaults for the rest (an in-memory dict needs no commit).
    """

    #: Human-readable backend identifier (trace events, reports).
    name = "backend"
    #: Does acknowledged state survive :meth:`wipe` + :meth:`recover`?
    durable = False

    def __init__(self) -> None:
        self.node = None

    def bind(self, node) -> None:
        """Attach to the owning node (simulator, metrics, name access)."""
        self.node = node

    @property
    def records(self) -> Dict[FlowKey, FlowRecord]:
        """The live record mapping (insertion-ordered)."""
        raise NotImplementedError

    def get(self, key: FlowKey) -> Optional[FlowRecord]:
        return self.records.get(key)

    def record(self, key: FlowKey) -> FlowRecord:
        """Get-or-create the record for ``key``."""
        rec = self.records.get(key)
        if rec is None:
            rec = FlowRecord()
            self.records[key] = rec
        return rec

    def commit(self, key: FlowKey, rec: FlowRecord) -> None:
        """Make ``rec`` durable (idempotent; called before every reply)."""

    def wipe(self) -> None:
        """Crash: drop all volatile state. Durable media stay on disk."""
        raise NotImplementedError

    def recover(self) -> int:
        """Rebuild records from the durable medium; returns the count."""
        return 0

    def describe(self) -> str:
        """One-line backend description for reports and traces."""
        return self.name

    def close(self) -> None:
        """Release external resources (file handles); idempotent."""


class InMemoryBackend(StateStoreBackend):
    """The reference backend: a plain in-memory dict (store-server DRAM).

    Bit-identical to the storage the pre-refactor ``StateStoreNode``
    embedded: no commit cost, survives a process *restart* (the node's
    ``fail()``/``recover()`` pair models a reachable-again server whose
    DRAM is intact) but not a :meth:`wipe` crash.
    """

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._records: Dict[FlowKey, FlowRecord] = {}

    @property
    def records(self) -> Dict[FlowKey, FlowRecord]:
        return self._records

    def wipe(self) -> None:
        self._records.clear()

    def recover(self) -> int:
        return 0

    def describe(self) -> str:
        return f"memory({len(self._records)} records)"
