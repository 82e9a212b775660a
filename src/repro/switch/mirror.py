"""Egress-to-egress packet mirroring.

RedPlane repurposes the ASIC's mirroring capability as a retransmission
buffer (§5.2): when a replication request is sent, a *truncated* copy (the
RedPlane header only, not the piggybacked payload) is mirrored back into
the egress pipeline, where it circulates until either an acknowledgment
with an equal-or-higher sequence number arrives (drop the copy) or its
timeout expires (resend it to the state store and keep circulating).

While a copy circulates it occupies switch packet buffer; the ASIC tracks
current and peak occupancy, which is what Fig 15 measures via queue-depth
metadata.

A circulating copy is never transmitted (a resend is a fresh packet the
pass handler builds from the copy's state), so the simulator keeps no
copy of its bytes: a :class:`MirrorCopy` is a reference to the mirrored
packet, the owner's retransmission state and the truncated size it
occupies in the buffer.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

from repro.net import constants
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import RetransmitState
    from repro.switch.asic import SwitchASIC

#: Handler invoked on each pass of a copy with the copy's state; returns
#: the absolute simulated time of the copy's next pass.
PassHandler = Callable[["RetransmitState"], float]


class MirrorCopy:
    """A handle to one circulating mirrored copy.

    ``pkt`` is the mirrored packet itself, by reference: the copy is never
    sent, so it needs no bytes of its own, only ``size``, the truncated
    bytes it holds in the packet buffer; ``state`` is the owner's
    retransmission state, handed to the pass handler. In hardware the
    copy passes through egress every pass interval and the pipeline drops
    it as soon as its acknowledgment has been seen. The simulator models
    that with events at the *action* times only (the retransmission
    deadlines), so whoever processes the acknowledgment must call
    :meth:`MirrorSession.release` — that is the "drop on next pass",
    collapsed to zero delay.
    """

    __slots__ = ("pkt", "state", "size", "event", "released")

    def __init__(self, pkt: Packet, state: "RetransmitState",
                 size: int) -> None:
        self.pkt = pkt
        self.state = state
        self.size = size
        self.event = None
        self.released = False


class MirrorSession:
    """One mirroring session: copies are truncated to
    :data:`~repro.net.constants.MIRROR_TRUNCATE_BYTES` and each pass runs
    ``handler``."""

    def __init__(
        self, asic: "SwitchASIC", session_id: int, handler: PassHandler
    ) -> None:
        self.asic = asic
        self.session_id = session_id
        self.handler = handler
        self._g_active = asic.sim.metrics.gauge(
            "mirror.active_copies", switch=asic.name, session=session_id
        )
        self._c_mirrored = asic.sim.metrics.counter(
            "mirror.copies_total", switch=asic.name, session=session_id
        )

    @property
    def active_copies(self) -> int:
        """Copies currently circulating (registry gauge view)."""
        return int(self._g_active.value)

    def mirror(
        self, pkt: Packet, state: "RetransmitState", first_pass_at: float
    ) -> MirrorCopy:
        """Mirror a truncated copy of ``pkt`` into the egress pipeline,
        carrying ``state``; its first pass is at ``first_pass_at``."""
        size = min(constants.MIRROR_TRUNCATE_BYTES, pkt.wire_size)
        copy = MirrorCopy(pkt, state, size)
        self._g_active.add(1)
        self._c_mirrored.inc()
        self.asic.buffer_acquire(size)
        # Every pass is at an absolute time, never sooner than one pass
        # interval from now (as in :meth:`_one_pass`).
        sim = self.asic.sim
        copy.event = sim.schedule_at(
            max(first_pass_at, sim.now + constants.MIRROR_PASS_US),
            self._one_pass, copy,
        )
        return copy

    def release(self, copy: MirrorCopy) -> None:
        """Drop a circulating copy (acknowledged, or no longer needed)."""
        if copy.released:
            return
        copy.released = True
        self._g_active.add(-1)
        self.asic.buffer_release(copy.size)
        if copy.event is not None:
            self.asic.sim.cancel(copy.event)
            copy.event = None

    def _one_pass(self, copy: MirrorCopy) -> None:
        if copy.released:
            return
        copy.event = None
        if self.asic.failed:
            # The switch died with the copy in its buffer; state is gone.
            self.release(copy)
            return
        sim = self.asic.sim
        copy.event = sim.schedule_at(
            max(self.handler(copy.state), sim.now + constants.MIRROR_PASS_US),
            self._one_pass, copy,
        )
