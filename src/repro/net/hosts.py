"""End hosts: simple single-homed nodes with a protocol dispatch table.

A :class:`Host` owns one IP address and one port toward its top-of-rack
switch. Incoming packets are dispatched to handlers registered per UDP/TCP
destination port, or to a default handler. State-store servers, traffic
generators, and TCP endpoints are built on top of this class.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net import constants
from repro.net.links import Node, Port
from repro.net.packet import Packet, TCPHeader, UDPHeader
from repro.net.simulator import Simulator

PacketHandler = Callable[[Packet], None]


class Host(Node):
    """A server or client machine with one NIC."""

    def __init__(self, sim: Simulator, name: str, ip: int) -> None:
        super().__init__(sim, name)
        self.ip = ip
        #: Additional addresses this host answers for (e.g. a software NF
        #: owning a service/public IP).
        self.extra_ips: set = set()
        self.nic = self.new_port()
        self._handlers: Dict[int, PacketHandler] = {}
        self.default_handler: Optional[PacketHandler] = None
        self.received: List[Packet] = []
        self.rx_packets = 0
        self.tx_packets = 0

    def bind(self, port_number: int, handler: PacketHandler) -> None:
        """Register a handler for packets whose L4 dport matches."""
        if port_number in self._handlers:
            raise ValueError(f"port {port_number} already bound on {self.name}")
        self._handlers[port_number] = handler

    def unbind(self, port_number: int) -> None:
        self._handlers.pop(port_number, None)

    def send(self, pkt: Packet, delay: float = 0.0) -> None:
        """Transmit a packet after host-stack processing delay."""
        self.tx_packets += 1
        sim = self.sim
        nic = self.nic
        link = nic.link
        delay += constants.HOST_PROC_US
        if link is None or delay < 0:
            # Unlinked: ``Port.send`` raises when the event fires. In the
            # past: ``schedule`` raises here.
            sim.schedule(delay, nic.send, pkt)
        else:
            sim.schedule_at(sim.now + delay, link.transmit, pkt, nic)

    def receive(self, pkt: Packet, port: Port) -> None:
        if pkt.ip is not None and pkt.ip.dst != self.ip and (
            pkt.ip.dst not in self.extra_ips
        ):
            # Not addressed to us; hosts are not routers.
            self.sim.count(f"{self.name}.drops.wrong_dst")
            return
        self.rx_packets += 1
        handler = None
        if isinstance(pkt.l4, (UDPHeader, TCPHeader)):
            handler = self._handlers.get(pkt.l4.dport)
        if handler is None:
            handler = self.default_handler
        if handler is not None:
            handler(pkt)
        else:
            self.received.append(pkt)
