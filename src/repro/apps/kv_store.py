"""In-switch key-value store (§7.2, Fig 13 / Table 1).

A NetCache-style KV service running in the switch data plane: clients send
read/update requests to a service IP; the switch answers reads from
register state at line rate and applies updates as replicated state writes.
The update ratio of the workload directly controls how often RedPlane's
synchronous replication path runs, which is what Fig 13 sweeps.

Request format (UDP payload, network order)::

    op     u8   0 = READ, 1 = UPDATE
    key    u32
    value  u32  (for updates; echoed for reads)
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.net.packet import FlowKey, Packet, UDPHeader, ip_aton
from repro.net.topology import Testbed
from repro.core.app import AppVerdict, InSwitchApp
from repro.core.flowstate import FlowStateView, StateSpec

#: Service address of the in-switch KV store (ECMP-anycast to the aggs).
KV_SERVICE_IP = ip_aton("198.51.100.1")
KV_UDP_PORT = 5300

OP_READ = 0
OP_UPDATE = 1

#: Pseudo protocol number for per-object partition keys.
_OBJECT_KEY_PROTO = 0xFD

_REQ = struct.Struct("!BII")


def make_request(src_ip: int, op: int, key: int, value: int = 0,
                 service_ip: int = KV_SERVICE_IP, sport: int = 5301) -> Packet:
    payload = _REQ.pack(op, key, value)
    return Packet.udp(src_ip, service_ip, sport, KV_UDP_PORT, payload=payload)


def parse_reply(pkt: Packet):
    """Returns (op, key, value) from a KV reply packet."""
    return _REQ.unpack_from(pkt.payload, 0)


class KvStoreApp(InSwitchApp):
    """Object storage in switch registers with per-object fault tolerance."""

    name = "kv-store"
    state_spec = StateSpec.of(("value", 0), ("exists", 0))
    #: The object key lives in the payload, so the partition decision
    #: depends on packet bytes, not just headers (RP141).
    partition_inputs = "packet"

    def __init__(self, service_ip: int = KV_SERVICE_IP) -> None:
        self.service_ip = service_ip
        self.reads = 0
        self.updates = 0
        self.misses = 0

    def object_key(self, key: int) -> FlowKey:
        return FlowKey(key, 0, _OBJECT_KEY_PROTO, 0, 0)

    def partition_key(self, pkt: Packet) -> Optional[FlowKey]:
        if (
            pkt.ip is None
            or pkt.ip.dst != self.service_ip
            or not isinstance(pkt.l4, UDPHeader)
            or pkt.l4.dport != KV_UDP_PORT
            or len(pkt.payload) < _REQ.size
        ):
            return None
        _op, key, _value = _REQ.unpack_from(pkt.payload, 0)
        return self.object_key(key)

    def process(self, state: FlowStateView, pkt, ctx, switch) -> AppVerdict:
        op, key, value = _REQ.unpack_from(pkt.payload, 0)
        if op == OP_UPDATE:
            state.set("value", value)
            state.set("exists", 1)
            self.updates += 1
            reply_value = value
        else:
            self.reads += 1
            if state.get("exists"):
                reply_value = state.get("value")
            else:
                self.misses += 1
                reply_value = 0
        # Turn the request around: the switch itself answers the client.
        pkt.payload = _REQ.pack(op, key, reply_value)
        pkt.ip.src, pkt.ip.dst = self.service_ip, pkt.ip.src
        pkt.l4.sport, pkt.l4.dport = KV_UDP_PORT, pkt.l4.sport
        return AppVerdict.FORWARD

    def resource_usage(self) -> dict:
        return {
            "sram_bits": 8192 * 96,
            "match_crossbar_bits": 72,
            "hash_bits": 32,
            "vliw_instructions": 5,
            "gateways": 3,
        }


def install_kv_routes(bed: Testbed, service_ip: int = KV_SERVICE_IP) -> None:
    """ECMP the KV service /32 to both aggregation switches."""
    bed.anycast_to_aggs(service_ip, from_racks=True)
