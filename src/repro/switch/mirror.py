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
pass handler builds), so the simulator keeps no copy of its bytes: a
:class:`MirrorCopy` is a reference to the mirrored packet plus the
truncated size it occupies in the buffer.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.net import constants
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.switch.asic import SwitchASIC

#: Handler invoked on each recirculation pass; returns True to keep the
#: copy circulating, False to release it.
PassHandler = Callable[[Packet, Dict[str, object]], bool]


class MirrorCopy:
    """A handle to one circulating mirrored copy.

    ``pkt`` is the mirrored packet itself, by reference: the copy is never
    sent, so it needs no bytes of its own, only ``size``, the truncated
    bytes it holds in the packet buffer. In hardware the copy passes
    through egress every pass interval and the pipeline drops it as soon
    as its acknowledgment has been seen. The simulator models that with
    events at the *action* times only (the retransmission deadline), so
    whoever processes the acknowledgment must call
    :meth:`MirrorSession.release` — that is the "drop on next pass",
    collapsed to zero delay.
    """

    __slots__ = ("pkt", "meta", "size", "event", "released")

    def __init__(self, pkt: Packet, meta: Dict[str, object], size: int) -> None:
        self.pkt = pkt
        self.meta = meta
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
        self, pkt: Packet, meta: Optional[Dict[str, object]] = None
    ) -> MirrorCopy:
        """Mirror a truncated copy of ``pkt`` into the egress pipeline.
        ``meta`` becomes the copy's own handler state; its
        ``next_pass_us`` slot, if set, puts the first pass that far out,
        as the handler's does for later passes."""
        size = min(constants.MIRROR_TRUNCATE_BYTES, pkt.byte_size())
        copy = MirrorCopy(pkt, {} if meta is None else meta, size)
        self._g_active.add(1)
        self._c_mirrored.inc()
        self.asic.buffer_acquire(size)
        copy.event = self.asic.sim.schedule(
            max(constants.MIRROR_PASS_US,
                float(copy.meta.pop("next_pass_us", 0.0))),
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
        keep = self.handler(copy.pkt, copy.meta)
        if keep:
            # Schedule the next *action* pass; the handler may set
            # ``meta['next_pass_us']`` to skip the no-op recirculations
            # between now and the retransmission deadline (pure
            # event-count savings; releases happen via release()).
            delay = max(
                constants.MIRROR_PASS_US,
                float(copy.meta.pop("next_pass_us", 0.0)),
            )
            copy.event = self.asic.sim.schedule(delay, self._one_pass, copy)
        else:
            self.release(copy)
