"""Bounded-inconsistency mode: lazy snapshotting + periodic replication.

Write-centric applications (sketches, Bloom filters) cannot afford a
synchronous replication round trip per packet. RedPlane instead replicates
*consistent snapshots* asynchronously every ``T_snap`` (§4.4, §5.4): upon
failure at most the last ``epsilon`` seconds of updates are lost, but the
recovered state is an actual state of the system.

The hardware obstacle is that P4 allows one entry access per register
array per packet, so an array cannot be copied atomically. Algorithm 1's
*lazy snapshotting* solves it with two interleaved copies per index
(``pair<int, int>``), a 1-bit active-buffer flag, and a 1-bit per-index
"last updated" array; copies synchronize lazily as traffic touches them.
:class:`LazySnapshotArray` is a faithful port of that pseudocode.

Replication itself uses the ASIC packet generator: every period it emits
one snapshot-read packet per slot; :class:`SnapshotReplicator` turns each
into a ``SNAPSHOT_REPL_REQ`` carrying the frozen slot value, sequenced by a
snapshot *epoch* and retransmitted through the same mirror machinery as
synchronous updates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.packet import FlowKey, Packet
from repro.switch.pipeline import ControlBlock, PipelineContext
from repro.switch.registers import PairedRegisterArray, RegisterArray
from repro.core.engine import RedPlaneEngine
from repro.core.protocol import MessageType, RedPlaneMessage


class LazySnapshotArray:
    """Two interleaved copies of a register array with lazy sync (Alg 1)."""

    def __init__(self, name: str, size: int, width_bits: int = 32) -> None:
        self.name = name
        self.size = size
        # pair<int,int> data slots plus the two metadata registers.
        self.data = PairedRegisterArray(f"{name}.data", size, width_bits)
        self.active_flag = RegisterArray(f"{name}.active", 1, 1)
        self.last_updated = RegisterArray(f"{name}.last_updated", size, 1)
        self.snapshots_taken = 0

    def sram_bits(self) -> int:
        """Total SRAM of the structure: the paired data slots *and* the
        two metadata registers. Apps must declare this figure (RP132
        audits declarations against it), not just the data bits."""
        return int(
            self.data.sram_bits()
            + self.active_flag.sram_bits()
            + self.last_updated.sram_bits()
        )

    # -- regular traffic -------------------------------------------------------

    def update(self, ctx: PipelineContext, index: int, delta: int) -> int:
        """SKETCH_UPDATE packet: add ``delta`` to the active copy.

        The first packet to touch an index after a snapshot flip first
        copies the inactive (frozen) value into the active copy, so the
        frozen copy is preserved exactly while traffic keeps flowing.
        """
        active = self.active_flag.read(ctx, 0)
        prev = self.last_updated.access(ctx, index, lambda old: (active, old))
        first_touch = prev != active

        def rmw(lo: int, hi: int) -> Tuple[int, int, int]:
            bufs = [lo, hi]
            if first_touch:
                bufs[active] = bufs[1 - active]
            bufs[active] += delta
            return bufs[0], bufs[1], bufs[active]

        return self.data.access(ctx, index, rmw)

    def test_and_set(self, ctx: PipelineContext, index: int) -> int:
        """Set the slot to 1 and return its previous value (one access).

        The Bloom-filter building block: membership test and insert fused
        into a single stateful-ALU operation, with the same lazy-copy
        behaviour as :meth:`update`.
        """
        active = self.active_flag.read(ctx, 0)
        prev_buf = self.last_updated.access(ctx, index, lambda old: (active, old))
        first_touch = prev_buf != active

        def rmw(lo: int, hi: int) -> Tuple[int, int, int]:
            bufs = [lo, hi]
            if first_touch:
                bufs[active] = bufs[1 - active]
            prev = bufs[active]
            bufs[active] = 1
            return bufs[0], bufs[1], prev

        return self.data.access(ctx, index, rmw)

    # -- snapshot reads (generated packets) -------------------------------------

    def snapshot_read(self, ctx: PipelineContext, index: int) -> int:
        """SNAPSHOT_READ packet: return the frozen value of ``index``.

        The read for index 0 flips the active buffer, starting a new
        snapshot; all reads return values from the now-inactive copy.
        """
        if index == 0:
            active = self.active_flag.access(ctx, 0, lambda old: (1 - old, 1 - old))
            self.snapshots_taken += 1
        else:
            active = self.active_flag.read(ctx, 0)
        prev = self.last_updated.access(ctx, index, lambda old: (active, old))
        first_touch = prev != active

        def rmw(lo: int, hi: int) -> Tuple[int, int, int]:
            bufs = [lo, hi]
            if first_touch:
                # Synchronize, then read: both copies now hold the frozen
                # value, so either is the snapshot.
                bufs[active] = bufs[1 - active]
                return bufs[0], bufs[1], bufs[active]
            # This index was already touched since the flip; the inactive
            # copy holds the frozen value.
            return bufs[0], bufs[1], bufs[1 - active]

        return self.data.access(ctx, index, rmw)

    # -- control-plane helpers (tests / recovery) --------------------------------

    def cp_live_values(self) -> List[int]:
        """The logical (most-recent) value of every slot."""
        active = self.active_flag.cp_read(0)
        out = []
        for i in range(self.size):
            lo, hi = self.data.cp_read(i)
            bufs = [lo, hi]
            touched = self.last_updated.cp_read(i) == active
            out.append(bufs[active] if touched else bufs[1 - active])
        return out

    def cp_install(self, values: List[int]) -> None:
        """Restore slot values (state recovery on a replacement switch)."""
        if len(values) != self.size:
            raise ValueError("value count does not match array size")
        for i, val in enumerate(values):
            self.data.cp_write(i, val, val)
            self.last_updated.cp_write(i, self.active_flag.cp_read(0))


class SnapshotReplicator(ControlBlock):
    """Periodic asynchronous snapshot replication of lazy arrays (§5.4).

    Registered as a pipeline block ahead of the protocol engine: it claims
    the snapshot-read packets emitted by the ASIC packet generator, reads
    the frozen slot value, and ships it to the state store. Each snapshot
    round is an *epoch*; the store applies a slot only if its epoch is not
    older than what it already has, and the mirror-based retransmitter
    keeps resending a slot until its epoch is acknowledged.
    """

    name = "snapshot-replicator"

    def __init__(self, engine: RedPlaneEngine) -> None:
        self.engine = engine
        self.switch = engine.switch
        self.period_us = engine.config.snapshot_period_us
        self.structures: Dict[FlowKey, LazySnapshotArray] = (
            engine.app.snapshot_structures()
        )
        self.epoch = 0
        #: (store key, slot) -> unacknowledged epoch.
        self._outstanding: Dict[Tuple[FlowKey, int], int] = {}
        self.slots_replicated = 0
        self.acks = 0
        self.stopped = False
        #: Simulated time of the last fully acknowledged snapshot epoch;
        #: used to monitor the inconsistency bound epsilon (§5.5).
        self.last_complete_snapshot_at: Optional[float] = None
        self._epoch_pending: Dict[int, int] = {}
        # The replicator itself is the engine's snapshot-ack handler: it is
        # called for each SNAPSHOT_REPL_ACK and consulted (``is_acked``) by
        # the mirror-based retransmitter.
        engine.snapshot_ack_handler = self

    # -- pktgen wiring --------------------------------------------------------

    def start(self) -> None:
        """Configure and start the ASIC packet generator."""
        slots = [
            (key, i)
            for key, array in sorted(
                self.structures.items(), key=lambda kv: kv[0].pack()
            )
            for i in range(array.size)
        ]

        def builder(i: int) -> Optional[Packet]:
            key, slot = slots[i]
            pkt = Packet()
            pkt.meta["snapshot_read"] = (key, slot, i == 0)
            return pkt

        self.switch.pktgen.configure(self.period_us, len(slots), builder)
        self.switch.pktgen.start()

    def stop(self) -> None:
        """Stop replicating: no new snapshot requests, and outstanding
        copies are considered settled (their retransmitter drops them on
        the next pass)."""
        self.stopped = True
        self.switch.pktgen.stop()
        self._outstanding.clear()

    # -- pipeline block --------------------------------------------------------

    def process(self, ctx: PipelineContext, switch) -> bool:
        marker = ctx.pkt.meta.get("snapshot_read")
        if marker is None:
            return True
        if self.stopped:
            # A straggler from the final generator batch: consume it
            # without emitting further replication requests.
            ctx.consume()
            return False
        key, slot, batch_start = marker
        if batch_start:
            self.epoch += 1
            self._epoch_pending[self.epoch] = sum(
                array.size for array in self.structures.values()
            )
            fp = self.switch.sim.fastpath
            if fp is not None:
                # Snapshot rotation: compiled flow-cache state must not
                # straddle an epoch boundary.
                fp.bus.publish("snapshot")
        array = self.structures[key]
        value = array.snapshot_read(ctx, slot)
        msg = RedPlaneMessage(
            seq=self.epoch,
            msg_type=MessageType.SNAPSHOT_REPL_REQ,
            flow_key=key,
            vals=[value],
            aux=slot,
        )
        self._outstanding[(key, slot)] = self.epoch
        self.engine.send_snapshot_request(msg)
        self.slots_replicated += 1
        ctx.consume()
        return False

    # -- acknowledgment handling --------------------------------------------------

    def __call__(self, msg: RedPlaneMessage) -> None:
        self._on_ack(msg)

    def _on_ack(self, msg: RedPlaneMessage) -> None:
        self.acks += 1
        slot_key = (msg.flow_key, msg.aux)
        cur = self._outstanding.get(slot_key)
        if cur is not None and msg.seq >= cur:
            del self._outstanding[slot_key]
            remaining = self._epoch_pending.get(cur)
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    del self._epoch_pending[cur]
                    self.last_complete_snapshot_at = self.switch.sim.now
                else:
                    self._epoch_pending[cur] = remaining

    def is_acked(self, msg: RedPlaneMessage) -> bool:
        """Retransmission predicate: is this mirrored copy obsolete?"""
        if self.stopped:
            return True
        cur = self._outstanding.get((msg.flow_key, msg.aux))
        return cur is None or cur != msg.seq

    # -- inconsistency bound -----------------------------------------------------

    def staleness_us(self) -> float:
        """Time since the last fully replicated snapshot (the epsilon)."""
        if self.last_complete_snapshot_at is None:
            return float("inf")
        return self.switch.sim.now - self.last_complete_snapshot_at
