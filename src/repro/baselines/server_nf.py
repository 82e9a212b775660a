"""Server-based network functions (the "Server-NAT" baselines of Fig 8).

The NF runs on a commodity server as a one-armed appliance: clients tunnel
outbound packets to the NF (the standard NFV steering pattern), the NF
translates and emits the real packet; inbound traffic reaches the NF by
routing the NAT public address to its host. Per-packet cost is dominated
by the extra network detour plus software processing — the paper measures
7-14x the median latency of switch-based NATs.

The FT variant synchronously replicates each state-affecting packet's
update to a replica server before releasing output (Pico-style), adding
another network round trip on writes and a smaller logging cost per packet.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.net import constants
from repro.net.hosts import Host
from repro.net.packet import FlowKey, Packet, ip_aton
from repro.net.simulator import Simulator
from repro.net.topology import Testbed
from repro.apps.nat import NAT_PUBLIC_IP, is_internal

#: UDP port on which the NF accepts tunneled (encapsulated) packets.
NF_TUNNEL_PORT = 6000
#: UDP port for replication traffic between NF instances.
NF_REPL_PORT = 6001


def tunnel_to_nf(inner: Packet, src_ip: int, nf_ip: int) -> Packet:
    """Encapsulate a packet for steering to the NF server."""
    return Packet.udp(
        src_ip, nf_ip, NF_TUNNEL_PORT, NF_TUNNEL_PORT, payload=inner.to_bytes()
    )


class ServerNat(Host):
    """A software NAT on a server, optionally with synchronous replication."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: int,
        public_ip: int = NAT_PUBLIC_IP,
        replica_ips: Optional[List[int]] = None,
        proc_delay_us: float = constants.SERVER_NF_PROC_US,
    ) -> None:
        super().__init__(sim, name, ip)
        self.public_ip = public_ip
        self.extra_ips.add(public_ip)
        self.replica_ips = list(replica_ips or [])
        self.proc_delay_us = proc_delay_us
        #: public-side port -> internal (ip, port)
        self.translations: Dict[int, Tuple[int, int]] = {}
        self.bind(NF_TUNNEL_PORT, self._on_tunneled)
        self.bind(NF_REPL_PORT, self._on_replication)
        self.default_handler = self._on_inbound
        self.packets_processed = 0
        self.replications_sent = 0
        self._pending_release: Dict[int, List[Packet]] = {}
        self._next_repl_id = 0
        self._repl_acks_needed: Dict[int, int] = {}

    # -- outbound: tunneled from internal clients ----------------------------------

    def _on_tunneled(self, pkt: Packet) -> None:
        inner = Packet.from_bytes(pkt.payload)
        if inner.ip is None or inner.l4 is None:
            return
        self.packets_processed += 1
        new_entry = inner.l4.sport not in self.translations
        self.translations[inner.l4.sport] = (inner.ip.src, inner.l4.sport)
        inner.ip.src = self.public_ip
        if new_entry and self.replica_ips:
            self._replicate_then_send(inner.l4.sport, inner)
        else:
            self.send(inner, delay=self.proc_delay_us)

    # -- inbound: routed to us via the public address ---------------------------------

    def _on_inbound(self, pkt: Packet) -> None:
        if pkt.ip is None or pkt.l4 is None or pkt.ip.dst != self.public_ip:
            return
        entry = self.translations.get(pkt.l4.dport)
        if entry is None:
            self.sim.metrics.counter(
                "host.drops", host=self.name, reason="no_translation"
            ).inc()
            return
        self.packets_processed += 1
        int_ip, _int_port = entry
        pkt.ip.dst = int_ip
        self.send(pkt, delay=self.proc_delay_us)

    # -- synchronous replication to peer NF instances ------------------------------------

    def _replicate_then_send(self, port: int, out_pkt: Packet) -> None:
        repl_id = self._next_repl_id
        self._next_repl_id += 1
        self._pending_release.setdefault(repl_id, []).append(out_pkt)
        self._repl_acks_needed[repl_id] = len(self.replica_ips)
        int_ip, int_port = self.translations[port]
        payload = struct.pack("!IHIH", repl_id, port, int_ip, int_port)
        for replica_ip in self.replica_ips:
            msg = Packet.udp(self.ip, replica_ip, NF_REPL_PORT, NF_REPL_PORT,
                             payload=payload)
            self.send(msg, delay=self.proc_delay_us)
            self.replications_sent += 1

    def _on_replication(self, pkt: Packet) -> None:
        if len(pkt.payload) == struct.calcsize("!IHIH"):
            # A replication request from a peer: record and acknowledge.
            repl_id, port, int_ip, int_port = struct.unpack("!IHIH", pkt.payload)
            self.translations[port] = (int_ip, int_port)
            ack = Packet.udp(self.ip, pkt.ip.src, NF_REPL_PORT, NF_REPL_PORT,
                             payload=struct.pack("!I", repl_id))
            self.send(ack, delay=self.proc_delay_us)
            return
        # An acknowledgment for our own replication.
        (repl_id,) = struct.unpack("!I", pkt.payload[:4])
        needed = self._repl_acks_needed.get(repl_id)
        if needed is None:
            return
        needed -= 1
        if needed > 0:
            self._repl_acks_needed[repl_id] = needed
            return
        del self._repl_acks_needed[repl_id]
        for out_pkt in self._pending_release.pop(repl_id, []):
            self.send(out_pkt, delay=self.proc_delay_us)


def install_nf_routes(bed: Testbed, nf_host: Host,
                      public_ip: int = NAT_PUBLIC_IP) -> None:
    """Route the NAT public /32 to the NF server's attachment point."""
    nf_port = nf_host.nic.link.other_end(nf_host.nic)
    attach_switch = nf_port.node

    # The switch the NF hangs off gets a direct /32.
    attach_switch.table.add(public_ip, 32, [nf_port])

    # Everyone else routes toward that switch through the normal fabric.
    for tor in bed.tors:
        if tor is attach_switch:
            continue
        uplinks = [
            p for p in tor.ports
            if p.link is not None and p.link.other_end(p).node in bed.aggs
        ]
        if uplinks:
            tor.table.add(public_ip, 32, uplinks)
    for agg in bed.aggs:
        ports = [
            p for p in agg.ports
            if p.link is not None and p.link.other_end(p).node is attach_switch
        ]
        if ports:
            agg.table.add(public_ip, 32, ports)
    for core in bed.cores:
        ports = [
            p for p in core.ports
            if p.link is not None and p.link.other_end(p).node is attach_switch
        ]
        if not ports:
            ports = [
                p for p in core.ports
                if p.link is not None and p.link.other_end(p).node in bed.aggs
            ]
        if ports:
            core.table.add(public_ip, 32, ports)
