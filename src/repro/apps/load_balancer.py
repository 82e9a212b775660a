"""L4 load balancer (§6, application 3).

Maps connections arriving at a virtual IP (VIP) to a direct IP (DIP) from
a server pool, SilkRoad-style. The per-connection DIP choice is hard
state: losing it mid-connection sends packets to the wrong server and
resets the connection (Table 1).

The *server pool* is global state, so — per the paper's scoping (§3) — it
is owned and managed by the state-store servers: the DIP for a new
connection is chosen by the store-side allocator and returned in the
lease-new acknowledgment. The switch data plane itself never writes state,
making the app purely read-centric.
"""

from __future__ import annotations

import zlib
from typing import List, Optional

from repro.net.packet import FlowKey, Packet, TCPHeader, UDPHeader, ip_aton
from repro.net.topology import Testbed
from repro.core.app import AppVerdict, InSwitchApp
from repro.core.flowstate import FlowStateView, StateSpec

#: The virtual IP clients connect to; ECMP-anycast to both agg switches.
VIP = ip_aton("192.0.2.80")


class LoadBalancerApp(InSwitchApp):
    """VIP -> per-connection DIP mapping with direct server return."""

    name = "load-balancer"
    state_spec = StateSpec.of(("dip", 0))
    requires_control_plane_install = True

    def __init__(self, vip: int = VIP) -> None:
        self.vip = vip
        self.forwarded = 0
        self.no_dip_drops = 0

    def partition_key(self, pkt: Packet) -> Optional[FlowKey]:
        if pkt.ip is None or not isinstance(pkt.l4, (UDPHeader, TCPHeader)):
            return None
        if pkt.ip.dst == self.vip:
            return pkt.flow_key()
        return None  # direct server return: reverse traffic bypasses the LB

    def process(self, state: FlowStateView, pkt, ctx, switch) -> AppVerdict:
        dip = state.get("dip")
        if dip == 0:
            # No DIP assigned — can only happen if the store-side allocator
            # is not configured; drop rather than black-hole.
            self.no_dip_drops += 1
            return AppVerdict.DROP
        pkt.ip.dst = dip
        self.forwarded += 1
        return AppVerdict.FORWARD

    def resource_usage(self) -> dict:
        return {
            "sram_bits": 4096 * 136,
            "match_crossbar_bits": 104,
            "hash_bits": 104,
            "vliw_instructions": 3,
            "gateways": 3,
        }


def make_dip_allocator(dips: List[int]):
    """Store-side allocator: pick a DIP for each new connection.

    Deterministic by flow key so replayed experiments are reproducible;
    the pool lives at (and is managed by) the state store, the switch only
    ever reads the resulting per-flow mapping.
    """
    if not dips:
        raise ValueError("empty DIP pool")

    def allocator(key: FlowKey) -> List[int]:
        choice = dips[zlib.crc32(b"dip" + key.pack()) % len(dips)]
        return [choice]

    return allocator


def install_vip_routes(bed: Testbed, vip: int = VIP) -> None:
    """ECMP the VIP /32 to both aggregation switches at the core layer."""
    bed.anycast_to_aggs(vip)
