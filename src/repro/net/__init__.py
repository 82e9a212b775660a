"""Network substrate: discrete-event simulator, packets, links, topology.

This package models the hardware testbed of the RedPlane paper (Appendix D)
in software: a microsecond-resolution discrete-event simulator, byte-accurate
packet headers, links with latency and bandwidth that faults can cut or
impair (loss, corruption, duplication, jitter), L3 switches with ECMP
routing, and failure injection.
"""

from repro.net.simulator import Simulator
from repro.net.packet import (
    EthernetHeader,
    IPv4Header,
    UDPHeader,
    TCPHeader,
    FlowKey,
    Packet,
    ip_aton,
    ip_ntoa,
    PROTO_TCP,
    PROTO_UDP,
)
from repro.net.links import Node, Port, Link
from repro.net.hosts import Host
from repro.net.routing import RoutingTable, L3Switch, ecmp_hash
from repro.net.topology import Topology, build_testbed, Testbed

__all__ = [
    "Simulator",
    "EthernetHeader",
    "IPv4Header",
    "UDPHeader",
    "TCPHeader",
    "FlowKey",
    "Packet",
    "ip_aton",
    "ip_ntoa",
    "PROTO_TCP",
    "PROTO_UDP",
    "Node",
    "Port",
    "Link",
    "Host",
    "RoutingTable",
    "L3Switch",
    "ecmp_hash",
    "Topology",
    "build_testbed",
    "Testbed",
]
