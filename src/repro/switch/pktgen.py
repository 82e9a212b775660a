"""The switch ASIC's packet generator.

Tofino can synthesize batches of packets on a timer entirely in hardware.
RedPlane's bounded-inconsistency mode uses this (§5.4): every snapshot
period the generator emits one packet per data-structure entry; each packet
carries a unique index ``i`` which addresses the i-th slot so its value can
be copied into a replication message.
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.switch.asic import SwitchASIC

#: Builds the i-th packet of a batch (0-based); may return None to skip.
PacketBuilder = Callable[[int], Optional[Packet]]


class PacketGenerator:
    """Periodic batch packet generation into the ingress pipeline."""

    #: Gap between consecutive packets of one batch (us); the generator
    #: emits at line rate, far faster than the batch period.
    INTRA_BATCH_GAP_US = 0.01

    def __init__(self, asic: "SwitchASIC") -> None:
        self.asic = asic
        self.period_us: Optional[float] = None
        self.batch_size = 0
        self.builder: Optional[PacketBuilder] = None
        self.enabled = False
        self.batches_generated = 0

    def configure(
        self, period_us: float, batch_size: int, builder: PacketBuilder
    ) -> None:
        if period_us <= 0:
            raise ValueError("period must be positive")
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        self.period_us = period_us
        self.batch_size = batch_size
        self.builder = builder

    def start(self) -> None:
        if self.builder is None:
            raise RuntimeError("packet generator not configured")
        if self.enabled:
            return
        self.enabled = True
        self.asic.sim.schedule(self.period_us, self._tick)

    def stop(self) -> None:
        self.enabled = False

    def _tick(self) -> None:
        if not self.enabled or self.asic.failed:
            self.enabled = False
            return
        self.batches_generated += 1
        for i in range(self.batch_size):
            pkt = self.builder(i)
            if pkt is None:
                continue
            self.asic.sim.schedule(
                i * self.INTRA_BATCH_GAP_US, self.asic.inject, pkt
            )
        self.asic.sim.schedule(self.period_us, self._tick)
