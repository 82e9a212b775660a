"""Rollback-recovery by packet logging (FTMB-style, Fig 2b / §2.2).

Every packet that can affect state is copied to the switch control plane
and logged at an external controller; after a failure the log is replayed
through the application logic on a replacement switch to reconstruct
state. The fatal flaw on a hardware switch is the Tbps-vs-Gbps mismatch
between the data plane and the ASIC-to-CPU channel: under load the logging
channel saturates, log entries drop, and the replayed state is *wrong* —
which this model makes measurable (``log_drops`` / ``replay_divergence``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.net import constants
from repro.net.packet import FlowKey, Packet
from repro.switch.asic import SwitchASIC
from repro.switch.pipeline import ControlBlock, PipelineContext
from repro.core.app import InSwitchApp
from repro.core.flowstate import FlowStateView
from repro.baselines.switch_noft import PlainAppBlock

#: Maximum backlog the PCIe logging queue tolerates before dropping (us of
#: queueing delay); beyond this the channel is considered saturated.
LOG_QUEUE_CAP_US = 500.0


class PacketLogger(ControlBlock):
    """Copies app packets to the control plane for logging.

    Placed ahead of a :class:`PlainAppBlock`. The copy crosses the PCIe
    channel, which serializes at ``PCIE_BANDWIDTH_GBPS``; when the queue
    backlog exceeds the cap the copy is dropped and the log is incomplete.
    """

    name = "packet-logger"

    def __init__(self, switch: SwitchASIC, app: InSwitchApp) -> None:
        self.switch = switch
        self.app = app
        self.log: List[Tuple[float, bytes]] = []
        self.logged = 0
        self.log_drops = 0
        self._queue_free_at = 0.0

    def process(self, ctx: PipelineContext, switch: SwitchASIC) -> bool:
        pkt = ctx.pkt
        if self.app.partition_key(pkt) is None:
            return True
        now = switch.sim.now
        bits = pkt.wire_size * 8
        serialization = bits / (constants.PCIE_BANDWIDTH_GBPS * 1000.0)
        backlog = max(0.0, self._queue_free_at - now)
        if backlog > LOG_QUEUE_CAP_US:
            # Logging channel saturated: the packet proceeds unlogged.
            self.log_drops += 1
            return True
        self._queue_free_at = max(self._queue_free_at, now) + serialization
        arrival = self._queue_free_at + constants.PCIE_ONEWAY_US
        raw = pkt.to_bytes()
        switch.sim.schedule_at(arrival, self._commit, raw)
        return True

    def _commit(self, raw: bytes) -> None:
        if self.switch.failed:
            return
        self.log.append((self.switch.sim.now, raw))
        self.logged += 1

    # -- recovery ------------------------------------------------------------

    def replay(self) -> Dict[FlowKey, List[int]]:
        """Rebuild application state by replaying the (possibly lossy) log."""
        state: Dict[FlowKey, List[int]] = {}
        for _ts, raw in self.log:
            pkt = Packet.from_bytes(raw)
            key = self.app.partition_key(pkt)
            if key is None:
                continue
            vals = state.get(key)
            if vals is None:
                init = self.app.initial_state(key)
                vals = init if init is not None else self.app.state_spec.default_vals()
            view = FlowStateView(self.app.state_spec, vals)
            ctx = PipelineContext(pkt=pkt, now=0.0)
            self.app.process(view, pkt, ctx, self.switch)
            state[key] = view.vals()
        return state

    def replay_divergence(self, truth: PlainAppBlock) -> int:
        """Number of flows whose replayed state differs from the truth."""
        replayed = self.replay()
        divergent = 0
        keys = set(replayed) | set(truth.state)
        for key in keys:
            if replayed.get(key) != truth.state.get(key):
                divergent += 1
        return divergent
