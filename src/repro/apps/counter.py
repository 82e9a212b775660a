"""Per-flow packet counters (§6, application 6).

``SyncCounterApp`` updates state on *every* packet and therefore needs
synchronous replication — the paper's worst case ("Sync-Counter" in
Figs 9/10/12). ``AsyncCounterApp`` keeps the counters in a lazy-snapshot
array and replicates them periodically ("Async-Counter", bounded
inconsistency).
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional

from repro.net.packet import FlowKey, Packet
from repro.apps.nat import is_internal
from repro.core.app import AppVerdict, InSwitchApp
from repro.core.flowstate import FlowStateView, StateSpec
from repro.core.snapshot import LazySnapshotArray


class SyncCounterApp(InSwitchApp):
    """Counts packets per IP 5-tuple; every packet is a state update.

    Only the datacenter-bound direction is counted (like the paper's
    measurement setup, where the reflected packets of the RTT harness do
    not traverse the counter a second time).
    """

    name = "sync-counter"
    state_spec = StateSpec.of(("count", 0))

    def partition_key(self, pkt: Packet) -> Optional[FlowKey]:
        if pkt.ip is None or not is_internal(pkt.ip.dst):
            return None
        # Directional key: the counter counts one direction of a flow.
        return pkt.flow_key()

    def process(self, state: FlowStateView, pkt, ctx, switch) -> AppVerdict:
        state.increment("count")
        return AppVerdict.FORWARD

    def resource_usage(self) -> dict:
        return {"sram_bits": 4096 * 32, "meter_alus": 1, "vliw_instructions": 2}


class AsyncCounterApp(InSwitchApp):
    """Per-flow counters in a lazy-snapshot array, replicated periodically.

    State lives outside the engine's per-flow value registers: the app owns
    a :class:`LazySnapshotArray` indexed by a hash of the 5-tuple, and a
    :class:`~repro.core.snapshot.SnapshotReplicator` ships snapshots every
    period. Packet processing never writes engine-visible state, so every
    packet takes the line-rate fast path.
    """

    name = "async-counter"
    state_spec = StateSpec.of()

    #: Store partition key under which all counter snapshots are filed.
    STORE_KEY = FlowKey(0, 0, 0, 0, 1)

    def __init__(self, slots: int = 64) -> None:
        self.counters = LazySnapshotArray("async-counter", slots)

    def snapshot_structures(self) -> Dict[FlowKey, LazySnapshotArray]:
        return {self.STORE_KEY: self.counters}

    def partition_key(self, pkt: Packet) -> Optional[FlowKey]:
        if pkt.ip is None or not is_internal(pkt.ip.dst):
            return None
        return pkt.flow_key()

    def slot_of(self, key: FlowKey) -> int:
        return zlib.crc32(key.pack()) % self.counters.size

    def process(self, state: FlowStateView, pkt, ctx, switch) -> AppVerdict:
        self.counters.update(ctx, self.slot_of(pkt.flow_key()), 1)
        return AppVerdict.FORWARD

    def resource_usage(self) -> dict:
        return {
            "sram_bits": self.counters.sram_bits(),
            "meter_alus": 3,
            "vliw_instructions": 4,
        }
