"""L3 routing: longest-prefix-match tables with ECMP next-hop selection.

The testbed's fixed-function switches (core and ToR layers) run 5-tuple
ECMP, which is what gives the paper its best-effort flow affinity: packets
of one flow normally hash to the same aggregation switch, and reroute to
the alternative only when a switch or link fails (§2, "Network model").

Failure handling mirrors a BFD + route-withdrawal control plane: a switch
keeps forwarding toward a dead next hop until its *belief* about the port is
updated, which the topology schedules ``FAILURE_DETECT_US`` after the fault.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net import constants
from repro.net.links import Node, Port
from repro.net.packet import FlowKey, Packet, TCPHeader, UDPHeader
from repro.net.simulator import Simulator


#: The headers whose ports are part of a route-cache key.
_L4_HEADERS = (UDPHeader, TCPHeader)


def ecmp_hash(key: FlowKey, seed: int = 0) -> int:
    """Partition-aware ECMP hash for next-hop selection.

    The paper assumes the network is "configured to provide best-effort
    affinity such that packets from the same partition usually arrive at
    the same switch ... when [ECMP is] configured to use the partition key
    as their hash key" (§2). We therefore hash the *direction-stable* part
    of the flow identity — protocol plus the sorted port pair — so both
    directions of a connection (including one side rewritten by a NAT or
    load balancer) pick the same next hop. IP addresses are excluded
    because address-translating apps rewrite them asymmetrically.

    CRC32 mixed with a seed; the fabric uses one network-wide seed
    (:attr:`L3Switch.ECMP_SEED`).
    """
    lo, hi = sorted((key.sport, key.dport))
    material = bytes([key.proto]) + lo.to_bytes(2, "big") + hi.to_bytes(2, "big")
    return zlib.crc32(material + seed.to_bytes(4, "big")) & 0xFFFFFFFF


@dataclass
class Route:
    """One LPM entry: a prefix and its set of equal-cost next-hop ports.

    ``ports`` is a tuple: changing a route's next hops means adding a
    route (which bumps :attr:`RoutingTable.version`), never editing one
    behind the route caches' back.
    """

    prefix: int
    mask_len: int
    ports: Tuple[Port, ...] = ()

    def matches(self, ip: int) -> bool:
        if self.mask_len == 0:
            return True
        shift = 32 - self.mask_len
        return (ip >> shift) == (self.prefix >> shift)


class RoutingTable:
    """A longest-prefix-match table over :class:`Route` entries."""

    def __init__(self) -> None:
        self._routes: List[Route] = []
        #: Bumped on every mutation; a switch's route cache is valid only
        #: while this (and the switch's own belief version) is unchanged.
        self.version = 0

    def add(self, prefix: int, mask_len: int, ports: List[Port]) -> Route:
        """Install the route for ``prefix/mask_len``, replacing the one
        the table already holds for that exact prefix."""
        if not ports:
            raise ValueError("a route needs at least one next-hop port")
        route = Route(prefix, mask_len, tuple(ports))
        self.version += 1
        for i, old in enumerate(self._routes):
            if old.prefix == prefix and old.mask_len == mask_len:
                self._routes[i] = route
                return route
        self._routes.append(route)
        # Keep sorted longest-prefix-first so lookup is a linear scan.
        self._routes.sort(key=lambda r: -r.mask_len)
        return route

    def lookup(self, dst_ip: int) -> Optional[Route]:
        for route in self._routes:
            if route.matches(dst_ip):
                return route
        return None

    def routes(self) -> List[Route]:
        return list(self._routes)


class L3Switch(Node):
    """A fixed-function L3 switch: LPM + ECMP forwarding, TTL handling.

    ``port_up_belief`` is the switch's current view of each local port;
    the routing layer only spreads flows over believed-up next hops.
    """

    #: Network-wide ECMP seed. Sharing one seed across switches (same
    #: silicon, same config) is what lets the fabric deliver the
    #: per-partition affinity the paper's deployment relies on.
    ECMP_SEED = 0x5EED

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.table = RoutingTable()
        self.port_up_belief: Dict[int, bool] = {}
        #: Bumped on every belief change; see :attr:`RoutingTable.version`.
        self.belief_version = 0
        #: ``(dst, proto, sport, dport) -> port`` results of
        #: :meth:`select_port`, valid for the versions stamped beside it;
        #: :meth:`forward` reads it inline, :meth:`select_port` fills it.
        self._route_cache: Dict[tuple, Port] = {}
        self._route_cache_versions = (self.table.version, self.belief_version)
        self.forwarded = 0

    # -- belief management --------------------------------------------------

    def believes_up(self, port: Port) -> bool:
        return self.port_up_belief.get(id(port), True)

    def set_port_belief(self, port: Port, up: bool) -> None:
        self.port_up_belief[id(port)] = up
        self.belief_version += 1

    # -- forwarding -----------------------------------------------------------

    def receive(self, pkt: Packet, port: Port) -> None:
        self.forward(pkt)

    def forward(self, pkt: Packet) -> None:
        """Route a packet: LPM, then ECMP among believed-up next hops.
        A route-cache hit is read here; a miss or a stale cache goes to
        :meth:`select_port`."""
        ip = pkt.ip
        if ip is None:
            self._drop("non_ip")
            return
        if ip.ttl <= 1:
            self._drop("ttl")
            return
        out_port = None
        if self._route_cache_versions == (self.table.version,
                                          self.belief_version):
            l4 = pkt.l4
            if isinstance(l4, _L4_HEADERS):
                key = (ip.dst, ip.proto, l4.sport, l4.dport)
            else:
                key = (ip.dst, ip.proto, 0, 0)
            out_port = self._route_cache.get(key)
        if out_port is None:
            out_port = self.select_port(pkt)
            if out_port is None:
                return
        ip.ttl -= 1
        self.forwarded += 1
        sim = self.sim
        link = out_port.link
        if link is None:
            # Unlinked: ``Port.send`` raises when the event fires.
            sim.schedule(constants.SWITCH_PIPELINE_US, out_port.send, pkt)
        else:
            sim.schedule_at(sim.now + constants.SWITCH_PIPELINE_US,
                            link.transmit, pkt, out_port)

    def select_port(self, pkt: Packet) -> Optional[Port]:
        """Pick the output port for a packet without sending it.

        The LPM + ECMP result depends only on the destination, the
        hashed part of the flow identity, the table and the beliefs, so
        it is cached per ``(dst, proto, sport, dport)`` until one of the
        latter two changes version. Only successful
        selections are cached: a drop re-walks the table so its counters
        fire per packet. This is the cache's fill: :meth:`forward` reads
        a hit inline and calls here only on a miss.
        """
        versions = (self.table.version, self.belief_version)
        if versions != self._route_cache_versions:
            self._route_cache = {}
            self._route_cache_versions = versions
        ip = pkt.ip
        l4 = pkt.l4
        if isinstance(l4, _L4_HEADERS):
            key = (ip.dst, ip.proto, l4.sport, l4.dport)
        else:
            key = (ip.dst, ip.proto, 0, 0)
        cache = self._route_cache
        port = cache.get(key)
        if port is None:
            port = self._walk(pkt)
            if port is not None:
                if len(cache) >= constants.CACHE_CAP:
                    cache.clear()
                cache[key] = port
        return port

    def _walk(self, pkt: Packet) -> Optional[Port]:
        """LPM, then ECMP among believed-up next hops (the cache fill)."""
        route = self.table.lookup(pkt.ip.dst)
        if route is None:
            self._drop("no_route")
            return None
        alive = [p for p in route.ports if self.believes_up(p)]
        if not alive:
            self._drop("no_next_hop")
            return None
        index = ecmp_hash(pkt.flow_key(), self.ECMP_SEED) % len(alive)
        return alive[index]

    def _drop(self, reason: str) -> None:
        self.sim.metrics.counter(
            "route.drops", switch=self.name, reason=reason
        ).inc()
