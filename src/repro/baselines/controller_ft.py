"""SDN-controller-based fault tolerance (the "FT Switch-NAT w/ controller"
baseline of Fig 8, and the checkpoint-recovery strawman of §2.2/Fig 2a).

An external controller, reachable from the switch control plane over a
slow (1 Gbps) management network and itself chain-replicated for fault
tolerance, mirrors the application's state:

* in **per-update mode** every new-flow installation is synchronously
  recorded at the controller before the packet proceeds — this is the
  Morpheus/Ravana-style baseline whose extra management-network round trip
  shows up at the 99th percentile (185 us in the paper);
* in **checkpoint mode** the controller pulls periodic snapshots of the
  full state through the control plane; a failover restores the last
  snapshot, losing every update since it was taken — and the snapshot
  itself is throttled by the ASIC-to-CPU channel, which is why the
  approach cannot keep up (§2.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net import constants
from repro.net.packet import FlowKey, Packet
from repro.net.simulator import Simulator
from repro.switch.asic import SwitchASIC
from repro.switch.pipeline import ControlBlock, PipelineContext
from repro.core.app import InSwitchApp
from repro.baselines.switch_noft import PlainAppBlock

#: One-way latency of the management network (us): software forwarding
#: over a 1 Gbps channel between the switch CPU and the controller.
MGMT_ONEWAY_US = 18.0

#: Processing time of one controller operation (us).
CONTROLLER_OP_US = 12.0

#: Extra latency for replicating a controller update across its own
#: chain-replicated instances (us).
CONTROLLER_CHAIN_US = 22.0


class ExternalController:
    """A (chain-replicated) SDN controller holding mirrored switch state."""

    def __init__(self, sim: Simulator, replicated: bool = True) -> None:
        self.sim = sim
        self.replicated = replicated
        self.mirrored_state: Dict[FlowKey, List[int]] = {}
        self.snapshots: List[Dict[FlowKey, List[int]]] = []
        self.snapshot_times: List[float] = []

    def update_latency_us(self) -> float:
        latency = 2 * MGMT_ONEWAY_US + CONTROLLER_OP_US
        if self.replicated:
            latency += CONTROLLER_CHAIN_US
        return latency

    def store_snapshot(self, state: Dict[FlowKey, List[int]]) -> None:
        self.snapshots.append({k: list(v) for k, v in state.items()})
        self.snapshot_times.append(self.sim.now)

    def latest_snapshot(self) -> Dict[FlowKey, List[int]]:
        return dict(self.snapshots[-1]) if self.snapshots else {}


class ControllerFtBlock(PlainAppBlock):
    """Per-update controller mirroring: new-flow installs detour through
    the management network before the first packet is released."""

    name = "controller-ft-app"

    def __init__(
        self,
        switch: SwitchASIC,
        app: InSwitchApp,
        controller: ExternalController,
        allocator=None,
    ) -> None:
        super().__init__(switch, app, allocator)
        self.controller = controller

    def _finish_install(self, key: FlowKey, pkt: Packet) -> None:
        # The switch control plane has done its part; the packet is held
        # for the controller round trip, then released; the state the app
        # produces on release is what the controller mirrors.
        def released() -> None:
            super(ControllerFtBlock, self)._finish_install(key, pkt)
            self.controller.mirrored_state[key] = list(self.state[key])

        self.switch.sim.schedule(self.controller.update_latency_us(), released)

    def restore_from_controller(self) -> int:
        """Failover: populate local state from the controller's mirror."""
        self.state = {k: list(v) for k, v in self.controller.mirrored_state.items()}
        self._installed = set(self.state)
        return len(self.state)


class CheckpointingAgent:
    """Periodic state snapshots over the ASIC-to-CPU channel (Fig 2a).

    Every period the agent reads the full state through the control plane
    (paying PCIe bandwidth for each entry) and ships it to the controller.
    ``restore`` installs the most recent completed snapshot — everything
    newer is lost, which is the correctness gap of checkpoint-recovery.
    """

    #: Approximate bytes read over PCIe per state entry (key + values).
    ENTRY_BYTES = 64

    def __init__(
        self,
        block: PlainAppBlock,
        controller: ExternalController,
        period_us: float,
    ) -> None:
        self.block = block
        self.controller = controller
        self.period_us = period_us
        self.sim = block.switch.sim
        self.snapshots_taken = 0
        self.running = False

    def start(self) -> None:
        self.running = True
        self.sim.schedule(self.period_us, self._tick)

    def stop(self) -> None:
        self.running = False

    def snapshot_duration_us(self, entries: int) -> float:
        """Time to drain one snapshot over the PCIe channel."""
        bits = entries * self.ENTRY_BYTES * 8
        return bits / (constants.PCIE_BANDWIDTH_GBPS * 1000.0) + (
            2 * MGMT_ONEWAY_US
        )

    def _tick(self) -> None:
        if not self.running or self.block.switch.failed:
            self.running = False
            return
        # Reading state through the control plane takes time proportional
        # to the state size; the snapshot content is what existed when the
        # read completes (data-plane execution is NOT paused, so updates
        # racing the read are exactly the consistency hazard of §2.2).
        duration = self.snapshot_duration_us(len(self.block.state))
        self.sim.schedule(duration, self._complete)
        self.sim.schedule(max(self.period_us, duration), self._tick)

    def _complete(self) -> None:
        if self.block.switch.failed:
            return
        self.controller.store_snapshot(self.block.state)
        self.snapshots_taken += 1

    def restore(self, target: Optional[PlainAppBlock] = None) -> int:
        """Install the latest snapshot into ``target`` (default: source)."""
        block = target or self.block
        block.state = self.controller.latest_snapshot()
        block._installed = set(block.state)
        return len(block.state)
