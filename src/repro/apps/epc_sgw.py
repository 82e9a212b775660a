"""EPC serving gateway (§6, application 4) — mixed read/write.

A cellular packet core SGW routes user traffic based on per-user tunnel
endpoint IDs (TEIDs). Data packets (GTP-U) *read* the user's TEID; control
signaling (GTP-C: attach, handover) *updates* it. Signaling runs at a few
percent of the data rate (the paper injects 1 signaling packet per 17 data
packets, after [56, 62]), so this is the paper's mixed-read/write class:
synchronous replication on the (rare) writes, line-rate on reads.

Packet formats are simplified GTP: a UDP datagram to the GTP port whose
payload starts with a message-kind byte (data vs. signaling), the user id,
and the TEID. Carrying both kinds on one UDP port (real GTP splits them
across 2152/2123) keeps the fabric's per-partition ECMP affinity intact —
a user's signaling and data must reach the same switch, or every signaling
message would migrate the lease between switches (see DESIGN.md).
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.net.packet import FlowKey, Packet, UDPHeader
from repro.core.app import AppVerdict, InSwitchApp
from repro.core.flowstate import FlowStateView, StateSpec

#: The (unified) GTP port; see module docstring.
GTP_PORT = 2152

#: Message kinds in the simplified GTP header.
GTP_KIND_DATA = 0
GTP_KIND_SIGNALING = 1

#: Pseudo protocol number for the per-user partition key.
_USER_KEY_PROTO = 0xFE

_GTP = struct.Struct("!BII")  # kind, user id, teid


def make_data_packet(src_ip: int, dst_ip: int, user_id: int, teid: int,
                     payload: bytes = b"") -> Packet:
    """A GTP-U data packet for ``user_id`` encapsulated with ``teid``."""
    body = _GTP.pack(GTP_KIND_DATA, user_id, teid) + payload
    return Packet.udp(src_ip, dst_ip, GTP_PORT, GTP_PORT, payload=body)


def make_signaling_packet(src_ip: int, dst_ip: int, user_id: int,
                          new_teid: int) -> Packet:
    """A GTP-C signaling packet installing ``new_teid`` for ``user_id``."""
    body = _GTP.pack(GTP_KIND_SIGNALING, user_id, new_teid)
    return Packet.udp(src_ip, dst_ip, GTP_PORT, GTP_PORT, payload=body)


def is_signaling(pkt: Packet) -> bool:
    return len(pkt.payload) >= 1 and pkt.payload[0] == GTP_KIND_SIGNALING


def _parse_gtp(pkt: Packet) -> Optional[Tuple[int, int, int]]:
    if len(pkt.payload) < _GTP.size:
        return None
    return _GTP.unpack_from(pkt.payload, 0)


class EpcSgwApp(InSwitchApp):
    """Per-user TEID state: read by data packets, written by signaling."""

    name = "epc-sgw"
    state_spec = StateSpec.of(("teid", 0), ("session_active", 0))
    #: The GTP user id lives in the payload, so the partition decision
    #: depends on packet bytes, not just headers (RP141).
    partition_inputs = "packet"

    def __init__(self) -> None:
        self.data_forwarded = 0
        self.signaling_processed = 0
        self.no_session_drops = 0

    def user_key(self, user_id: int) -> FlowKey:
        return FlowKey(user_id, 0, _USER_KEY_PROTO, 0, 0)

    def partition_key(self, pkt: Packet) -> Optional[FlowKey]:
        if pkt.ip is None or not isinstance(pkt.l4, UDPHeader):
            return None
        if pkt.l4.dport != GTP_PORT:
            return None
        parsed = _parse_gtp(pkt)
        if parsed is None:
            return None
        _kind, user_id, _teid = parsed
        return self.user_key(user_id)

    def process(self, state: FlowStateView, pkt, ctx, switch) -> AppVerdict:
        kind, user_id, value = _parse_gtp(pkt)
        if kind == GTP_KIND_SIGNALING:
            # Signaling: install/refresh the user's tunnel endpoint.
            state.set("teid", value)
            state.set("session_active", 1)
            self.signaling_processed += 1
            return AppVerdict.FORWARD
        # Data: route only if the session exists and the TEID matches.
        if not state.get("session_active"):
            self.no_session_drops += 1
            return AppVerdict.DROP
        teid = state.get("teid")
        if teid != value:
            # Stale encapsulation (e.g. pre-handover TEID): rewrite to the
            # current tunnel, as a real SGW would re-encapsulate.
            pkt.payload = _GTP.pack(kind, user_id, teid) + pkt.payload[_GTP.size:]
        self.data_forwarded += 1
        return AppVerdict.FORWARD

    def resource_usage(self) -> dict:
        return {
            "sram_bits": 4096 * 96,
            "match_crossbar_bits": 64,
            "hash_bits": 32,
            "vliw_instructions": 5,
            "gateways": 4,
        }
