"""Super-spreader detection (Table 1, write-centric).

Detects sources that contact many distinct destinations (scanners, worms)
— the paper cites SpreadSketch [72]. Per-source distinct-destination
counting uses a Bloom-filter-guarded counter in switch registers: a
(src, dst) pair is hashed into a membership array; pairs seen for the
first time increment the source's spread estimate.

Every packet may write (membership bits and possibly the counter), so the
app runs in bounded-inconsistency mode: the membership array and the
spread counters live in lazy-snapshot arrays replicated periodically. A
switch failure without RedPlane zeroes the estimates ("inaccurate
detection", Table 1); with RedPlane the detector recovers to at most one
snapshot period stale.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional

from repro.net.packet import FlowKey, Packet
from repro.core.app import AppVerdict, InSwitchApp
from repro.core.flowstate import FlowStateView, StateSpec
from repro.core.snapshot import LazySnapshotArray
from repro.sketch.countmin import sketch_hash

#: Pseudo protocol number for the detector's store partition keys.
_SPREAD_KEY_PROTO = 0xFA

#: Store partition keys for the two replicated structures.
def membership_store_key(row: int) -> FlowKey:
    return FlowKey(1, row, _SPREAD_KEY_PROTO, 0, 0)


SPREAD_STORE_KEY = FlowKey(2, 0, _SPREAD_KEY_PROTO, 0, 0)


class SuperSpreaderApp(InSwitchApp):
    """Distinct-destination spread estimation per source."""

    name = "superspreader"
    state_spec = StateSpec.of()  # all state lives in lazy-snapshot arrays
    #: Bloom membership bits and spread counters are hash-indexed over
    #: (src, dst) pairs under a single constant store key: every flow
    #: shares them (verify pass 5, RS4xx).
    shard_class = "global"
    shard_reason = (
        "Bloom membership and per-source spread counters aggregate over "
        "all (src, dst) pairs; any two flows may collide in both structures"
    )

    def __init__(self, threshold: int = 32, membership_bits: int = 512,
                 spread_slots: int = 128, hash_rows: int = 2) -> None:
        self.threshold = threshold
        self.hash_rows = hash_rows
        #: Bloom-filter membership over (src, dst) pairs, one lazy array
        #: per hash row (each array still touched once per packet).
        self.membership = [
            LazySnapshotArray(f"spread.member{row}", membership_bits, 1)
            for row in range(hash_rows)
        ]
        #: Per-source spread estimate, indexed by a source hash.
        self.spread = LazySnapshotArray("spread.count", spread_slots)
        self.flagged = 0
        self.packets_processed = 0

    def snapshot_structures(self) -> Dict[FlowKey, LazySnapshotArray]:
        out = {
            membership_store_key(row): array
            for row, array in enumerate(self.membership)
        }
        out[SPREAD_STORE_KEY] = self.spread
        return out

    def partition_key(self, pkt: Packet) -> Optional[FlowKey]:
        if pkt.ip is None:
            return None
        return SPREAD_STORE_KEY

    def source_slot(self, src_ip: int) -> int:
        return zlib.crc32(b"src" + src_ip.to_bytes(4, "big")) % self.spread.size

    def process(self, state: FlowStateView, pkt, ctx, switch) -> AppVerdict:
        self.packets_processed += 1
        pair = pkt.ip.src.to_bytes(4, "big") + pkt.ip.dst.to_bytes(4, "big")
        # Bloom membership: the pair is new iff any row's bit was clear.
        # Each row's test-and-set is one fused stateful-ALU access.
        new_pair = False
        for row, array in enumerate(self.membership):
            prev = array.test_and_set(ctx, sketch_hash(pair, row, array.size))
            if prev == 0:
                new_pair = True
        slot = self.source_slot(pkt.ip.src)
        estimate = self.spread.update(ctx, slot, 1 if new_pair else 0)
        if estimate >= self.threshold:
            pkt.meta["superspreader"] = True
            self.flagged += 1
        return AppVerdict.FORWARD

    def estimate(self, src_ip: int) -> int:
        """Control-plane query of a source's current spread estimate."""
        return self.spread.cp_live_values()[self.source_slot(src_ip)]

    def resource_usage(self) -> dict:
        bits = sum(a.sram_bits() for a in self.membership)
        return {
            "sram_bits": bits + self.spread.sram_bits(),
            "meter_alus": self.hash_rows + 1,
            "hash_bits": 32 * (self.hash_rows + 1),
            "vliw_instructions": 2 * self.hash_rows + 3,
            "gateways": 4,
        }
