"""State replication between switch data planes (Fig 2c / §2.2).

The strawman the paper argues against: chain replication where the chain
nodes are *switch data planes*. The head switch processes packets and
forwards state updates to a backup switch over the data network — with no
reliable transport (the data plane cannot run TCP), so updates can be lost
or reordered, silently corrupting the backup. It also doubles the use of
the scarcest resource (data-plane SRAM), which :meth:`memory_overhead`
makes explicit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.packet import FlowKey, Packet
from repro.switch.asic import SwitchASIC
from repro.switch.pipeline import ControlBlock, PipelineContext
from repro.core.app import AppVerdict, InSwitchApp
from repro.core.flowstate import FlowStateView

#: UDP port carrying head->backup state updates.
CHAIN_SWITCH_PORT = 4899


class SwitchChainHead(ControlBlock):
    """Head of a two-switch chain: process, then push updates downstream."""

    name = "chain-head"

    def __init__(self, switch: SwitchASIC, app: InSwitchApp, backup_ip: int) -> None:
        self.switch = switch
        self.app = app
        self.backup_ip = backup_ip
        self.state: Dict[FlowKey, List[int]] = {}

    def process(self, ctx: PipelineContext, switch: SwitchASIC) -> bool:
        pkt = ctx.pkt
        key = self.app.partition_key(pkt)
        if key is None:
            return True
        vals = self.state.get(key)
        if vals is None:
            init = self.app.initial_state(key)
            vals = init if init is not None else self.app.state_spec.default_vals()
        view = FlowStateView(self.app.state_spec, vals)
        verdict = self.app.process(view, pkt, ctx, self.switch)
        if view.write_occurred:
            self.state[key] = view.vals()
            # Fire-and-forget update to the backup switch: no sequence
            # numbers, no acknowledgment, no retransmission — exactly the
            # unreliable channel §2.2 says breaks correctness.
            update = Packet.udp(
                self.switch.ip,
                self.backup_ip,
                CHAIN_SWITCH_PORT,
                CHAIN_SWITCH_PORT,
                payload=key.pack() + b"".join(
                    v.to_bytes(4, "big") for v in view.vals()
                ),
            )
            update.meta["rp_kind"] = "request"
            ctx.emit(update)
        if verdict is AppVerdict.DROP:
            ctx.drop()
            return False
        return True


class SwitchChainBackup(ControlBlock):
    """Backup switch: blindly applies whatever updates arrive."""

    name = "chain-backup"

    def __init__(self, switch: SwitchASIC, app: InSwitchApp) -> None:
        self.switch = switch
        self.app = app
        self.state: Dict[FlowKey, List[int]] = {}
        self.updates_applied = 0

    def process(self, ctx: PipelineContext, switch: SwitchASIC) -> bool:
        pkt = ctx.pkt
        if (
            pkt.ip is None
            or pkt.ip.dst != self.switch.ip
            or getattr(pkt.l4, "dport", None) != CHAIN_SWITCH_PORT
        ):
            return True
        key = FlowKey.unpack(pkt.payload[: FlowKey.PACKED_LEN])
        raw_vals = pkt.payload[FlowKey.PACKED_LEN :]
        vals = [
            int.from_bytes(raw_vals[i : i + 4], "big")
            for i in range(0, len(raw_vals), 4)
        ]
        # No sequencing: a reordered older update overwrites a newer one.
        self.state[key] = vals
        self.updates_applied += 1
        ctx.consume()
        return False

    def divergence(self, head: SwitchChainHead) -> int:
        """Flows whose backup state differs from the head's truth."""
        keys = set(self.state) | set(head.state)
        return sum(
            1 for key in keys if self.state.get(key) != head.state.get(key)
        )


def memory_overhead(app: InSwitchApp, flows: int) -> Dict[str, int]:
    """Data-plane SRAM bits consumed with vs. without chain replication.

    Replicating another switch's state doubles the footprint of the most
    limited resource; RedPlane keeps the replica in server DRAM instead.
    """
    per_flow_bits = app.state_spec.num_vals * 32
    return {
        "single_switch_bits": flows * per_flow_bits,
        "chain_bits": 2 * flows * per_flow_bits,
    }
