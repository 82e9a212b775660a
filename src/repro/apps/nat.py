"""In-switch NAT (§6, application 1) — the paper's exemplar application.

Translates between an internal address space (the datacenter racks) and a
public NAT address. The translation entry for a connection is per-flow hard
state: lose it and the connection is broken (Fig 1), which is precisely the
failure RedPlane repairs.

This reproduction implements a *port-preserving* NAT: the public-side port
equals the internal source port, so a single partition key — built from the
remote endpoint and the public-side port, both visible in either direction
— covers the whole connection. A full NAPT additionally draws public ports
from a pool; that pool is global state owned by the state-store servers
(§3), which the load balancer app exercises through the store-side
allocator. The translation table itself is match-table state, so restoring
it on a switch goes through the control plane
(``requires_control_plane_install``), giving new-flow packets the
99th-percentile latency of Fig 8.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import (
    FlowKey,
    Packet,
    TCPHeader,
    TCP_SYN,
    UDPHeader,
    ip_aton,
)
from repro.net.routing import L3Switch
from repro.net.topology import Testbed
from repro.core.app import AppVerdict, InSwitchApp
from repro.core.flowstate import FlowStateView, StateSpec

#: Public address of the NAT cluster; routed to both aggregation switches
#: (ECMP anycast), matching the paper's cluster deployment of NATs (§4.3).
NAT_PUBLIC_IP = ip_aton("192.0.2.1")

#: The internal address space being translated.
INTERNAL_PREFIX = ip_aton("10.0.0.0")
INTERNAL_MASK_LEN = 16

#: ``ip`` is internal iff ``ip >> _INTERNAL_SHIFT == _INTERNAL_NET``; the
#: NAT's per-packet methods test that inline, without a call.
_INTERNAL_SHIFT = 32 - INTERNAL_MASK_LEN
_INTERNAL_NET = INTERNAL_PREFIX >> _INTERNAL_SHIFT


def is_internal(ip: int) -> bool:
    return (ip >> _INTERNAL_SHIFT) == _INTERNAL_NET


class NatApp(InSwitchApp):
    """Per-connection source NAT with fault-tolerant translation state."""

    name = "nat"
    #: Translation entry: the internal endpoint this connection maps to.
    #: ``established`` guards against inbound packets for unknown flows.
    state_spec = StateSpec.of(("int_ip", 0), ("established", 0))
    requires_control_plane_install = True
    public_ip = NAT_PUBLIC_IP

    def __init__(self) -> None:
        self.translated_out = 0

    def provision(self, bed: Testbed, stores) -> None:
        """Route the public address to the aggregation switches (internal
        servers already reach it by their default route)."""
        bed.anycast_to_aggs(self.public_ip)

    def partition_key(self, pkt: Packet) -> Optional[FlowKey]:
        """One key for both directions: (remote endpoint, public port)."""
        if pkt.ip is None or not isinstance(pkt.l4, (UDPHeader, TCPHeader)):
            return None
        if ((pkt.ip.src >> _INTERNAL_SHIFT) == _INTERNAL_NET
                and (pkt.ip.dst >> _INTERNAL_SHIFT) != _INTERNAL_NET):
            # Outbound: remote is the destination; public port will be the
            # (preserved) internal source port.
            return FlowKey(pkt.ip.dst, self.public_ip, pkt.ip.proto,
                           pkt.l4.dport, pkt.l4.sport)
        if pkt.ip.dst == self.public_ip:
            # Inbound: remote is the source; public port is the dest port.
            return FlowKey(pkt.ip.src, self.public_ip, pkt.ip.proto,
                           pkt.l4.sport, pkt.l4.dport)
        return None  # transit traffic, not ours

    def process(self, state: FlowStateView, pkt, ctx, switch) -> AppVerdict:
        if (pkt.ip.src >> _INTERNAL_SHIFT) == _INTERNAL_NET:
            # Outbound: create the translation entry on the connection-
            # opening packet (the only state write; read-centric after).
            # Out-of-state TCP packets that are not connection-opening are
            # dropped, as a stateful/conntrack NAT does — this is exactly
            # why losing the table breaks established connections (Fig 1).
            if not state.get("established"):
                if isinstance(pkt.l4, TCPHeader) and not pkt.l4.has(TCP_SYN):
                    return AppVerdict.DROP
                state.set("int_ip", pkt.ip.src)
                state.set("established", 1)
            pkt.ip.src = self.public_ip
            self.translated_out += 1
            return AppVerdict.FORWARD
        # Inbound: translate back to the internal endpoint, or drop if the
        # connection is unknown (no translation state = broken connection,
        # exactly the Fig 1 failure mode when state is lost).
        if not state.get("established"):
            return AppVerdict.DROP
        pkt.ip.dst = state.get("int_ip")
        return AppVerdict.FORWARD

    def resource_usage(self) -> dict:
        return {
            "sram_bits": 4096 * 168,
            "match_crossbar_bits": 208,
            "hash_bits": 104,
            "vliw_instructions": 6,
            "gateways": 4,
        }


def install_nat_routes(bed: Testbed) -> None:
    """:meth:`NatApp.provision` on a bare testbed. ``deploy()`` already
    provisions the app; this stays only for the benchmark harness, whose
    workloads call it after ``deploy()`` (re-adding a route replaces it).
    """
    NatApp().provision(bed, [])
