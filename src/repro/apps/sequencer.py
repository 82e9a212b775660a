"""In-network sequencer (Table 1, mixed read/write).

NOPaxos-style network ordering [46]: the switch stamps a per-group
monotonically increasing sequence number onto designated request packets,
letting replicas detect drops and reordering without running consensus in
the common case. The sequence counter is hard state — after a failover a
*lower or repeated* stamp would break the ordering guarantee ("incorrect
sequencing", Table 1). RedPlane makes the counter fault tolerant: every
stamp is a state write replicated synchronously before the stamped packet
is released, so the sequence the replicas observe never regresses even
across switch failures.

Request format (UDP payload): group id u32 + placeholder stamp u32.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.net.packet import FlowKey, Packet, UDPHeader, ip_aton
from repro.net.topology import Testbed
from repro.core.app import AppVerdict, InSwitchApp
from repro.core.flowstate import FlowStateView, StateSpec

#: Requests to be sequenced are addressed to the sequencer service IP.
SEQUENCER_IP = ip_aton("198.51.100.2")
SEQUENCER_PORT = 5400

#: Pseudo protocol number for per-group partition keys.
_GROUP_KEY_PROTO = 0xF9

_REQ = struct.Struct("!II")  # group id, stamp


def make_sequenced_request(src_ip: int, group: int, dst_ip: int,
                           sport: int = 5401) -> Packet:
    """A request that wants a sequence stamp before reaching ``dst_ip``.

    The real destination rides behind the sequencer service address in
    the payload tail; the switch stamps and re-addresses the packet.
    """
    payload = _REQ.pack(group, 0) + dst_ip.to_bytes(4, "big")
    return Packet.udp(src_ip, SEQUENCER_IP, sport, SEQUENCER_PORT,
                      payload=payload)


def parse_stamp(pkt: Packet):
    """(group, stamp) from a sequenced packet."""
    return _REQ.unpack_from(pkt.payload, 0)


class SequencerApp(InSwitchApp):
    """Per-group sequence stamping with a fault-tolerant counter."""

    name = "sequencer"
    state_spec = StateSpec.of(("next_seq", 0))
    #: The group id lives in the payload, so the partition decision
    #: depends on packet bytes, not just headers (RP141).
    partition_inputs = "packet"
    #: The sequence counter orders requests from *many* client flows of a
    #: group; shard-local counters would hand out duplicate stamps
    #: (verify pass 5, RS4xx).
    shard_class = "global"
    shard_reason = (
        "a group's sequence counter is a cross-flow ordering contract: "
        "every client flow of the group increments the same counter, and "
        "NOPaxos-style ordering breaks if two shards stamp independently"
    )
    service_ip = SEQUENCER_IP

    def __init__(self) -> None:
        self.stamped = 0

    def group_key(self, group: int) -> FlowKey:
        return FlowKey(group, 0, _GROUP_KEY_PROTO, 0, 0)

    def partition_key(self, pkt: Packet) -> Optional[FlowKey]:
        if (
            pkt.ip is None
            or pkt.ip.dst != self.service_ip
            or not isinstance(pkt.l4, UDPHeader)
            or pkt.l4.dport != SEQUENCER_PORT
            or len(pkt.payload) < _REQ.size + 4
        ):
            return None
        group, _stamp = _REQ.unpack_from(pkt.payload, 0)
        return self.group_key(group)

    def process(self, state: FlowStateView, pkt, ctx, switch) -> AppVerdict:
        group, _ = _REQ.unpack_from(pkt.payload, 0)
        stamp = state.increment("next_seq")
        real_dst = int.from_bytes(
            pkt.payload[_REQ.size:_REQ.size + 4], "big")
        pkt.payload = _REQ.pack(group, stamp) + pkt.payload[_REQ.size:]
        pkt.ip.dst = real_dst
        self.stamped += 1
        return AppVerdict.FORWARD

    def provision(self, bed: Testbed, stores) -> None:
        """ECMP the sequencer service /32 to both aggregation switches,
        also from the ToR uplinks: rack clients address it directly."""
        bed.anycast_to_aggs(self.service_ip, from_racks=True)

    def resource_usage(self) -> dict:
        return {
            "sram_bits": 1024 * 64,
            "match_crossbar_bits": 64,
            "hash_bits": 32,
            "meter_alus": 1,
            "vliw_instructions": 4,
            "gateways": 2,
        }
