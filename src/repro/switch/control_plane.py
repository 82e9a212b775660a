"""The switch control plane and its ASIC-to-CPU channel.

The control plane is a CPU attached to the ASIC over PCIe with limited
bandwidth (O(10 Gbps)) and non-trivial latency — the mismatch between this
channel and the Tbps data plane is *the* reason checkpointing and
rollback-recovery fail on switches (§2.2), and why new-flow packets that
need a table insertion show up in the 99th-percentile latency of Fig 8.

Operations are serialized through a single busy-until CPU model; punted
packets cross PCIe, are processed in software, and may be re-injected into
the pipeline or trigger table installs.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.net import constants
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.switch.asic import SwitchASIC

PuntHandler = Callable[[Packet], None]


class SwitchControlPlane:
    """Software agent running on the switch CPU."""

    def __init__(self, asic: "SwitchASIC") -> None:
        self.asic = asic
        self.sim = asic.sim
        #: Application-installed handler for punted packets.
        self.punt_handler: Optional[PuntHandler] = None
        self._cpu_busy_until = 0.0

    # -- scheduling helpers -------------------------------------------------------

    def _cpu_run(self, fn: Callable[..., None], *args: Any) -> None:
        """Serialize ``fn`` through the single control-plane CPU."""
        start = max(self.sim.now, self._cpu_busy_until)
        finish = start + constants.CONTROL_PLANE_OP_US
        self._cpu_busy_until = finish
        self.sim.schedule_at(finish, self._execute, fn, args)

    def _execute(self, fn: Callable[..., None], args: tuple) -> None:
        if self.asic.failed:
            return
        fn(*args)

    # -- public API ----------------------------------------------------------------

    def submit(self, fn: Callable[..., None], *args: Any) -> None:
        """Run a control-plane operation (e.g. a table install).

        The operation crosses PCIe, executes on the CPU for
        ``CONTROL_PLANE_OP_US``, and its effects (the callable) apply when
        it completes.
        """
        self.sim.schedule(constants.PCIE_ONEWAY_US, self._cpu_run, fn, *args)

    def punt(self, pkt: Packet) -> None:
        """Deliver a data-plane packet to the CPU (slow path)."""
        pcie_delay = constants.PCIE_ONEWAY_US + self._pcie_serialization_us(pkt)
        self.sim.schedule(pcie_delay, self._deliver_punt, pkt)

    def _deliver_punt(self, pkt: Packet) -> None:
        if self.asic.failed:
            return
        if self.punt_handler is None:
            self.sim.metrics.counter(
                "switch.drops", switch=self.asic.name, reason="unhandled_punt"
            ).inc()
            return
        self._cpu_run(self.punt_handler, pkt)

    def reinject(self, pkt: Packet) -> None:
        """Send a packet from the CPU back into the data-plane pipeline."""
        pcie_delay = constants.PCIE_ONEWAY_US + self._pcie_serialization_us(pkt)
        self.sim.schedule(pcie_delay, self._reinject_arrive, pkt)

    def _reinject_arrive(self, pkt: Packet) -> None:
        if self.asic.failed:
            return
        self.asic.inject(pkt)

    @staticmethod
    def _pcie_serialization_us(pkt: Packet) -> float:
        bits = pkt.wire_size * 8
        return bits / (constants.PCIE_BANDWIDTH_GBPS * 1000.0)
