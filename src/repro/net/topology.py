"""Topology construction and failure injection.

:func:`build_testbed` reproduces the paper's Appendix-D testbed: two core
switches, two programmable aggregation switches (where the in-switch
applications run), two top-of-rack switches, two servers per rack, four
servers behind the core layer emulating hosts outside the datacenter, and
one state-store server per rack plus a third in the "external" rack so a
chain-replication group of three spans different racks.

The aggregation layer is built through a factory so experiments can drop in
either plain :class:`~repro.net.routing.L3Switch` instances or the
programmable :class:`~repro.switch.asic.SwitchASIC` model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.net import constants
from repro.net.hosts import Host
from repro.net.links import Link, Node, Port
from repro.net.packet import ip_aton
from repro.net.routing import L3Switch
from repro.net.simulator import Simulator


class Topology:
    """A collection of nodes and links with failure-injection helpers."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.links: List[Link] = []

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name: {node.name}")
        self.nodes[node.name] = node
        return node

    def connect(self, a: Node, b: Node, **link_kwargs) -> Link:
        """Create a new link between ``a`` and ``b``.

        Hosts are single-homed: their pre-created ``nic`` port is used
        (and must still be free); switches get a fresh port per link.
        """
        link = Link(self.sim, self._port_for(a), self._port_for(b), **link_kwargs)
        self.links.append(link)
        return link

    @staticmethod
    def _port_for(node: Node) -> Port:
        nic = getattr(node, "nic", None)
        if nic is not None:
            if nic.link is not None:
                raise RuntimeError(f"host {node.name} is already connected")
            return nic
        return node.new_port()

    # -- failure injection ------------------------------------------------------

    def fail_node(self, node: Node, detect_delay_us: Optional[float] = None) -> None:
        """Fail-stop a node; neighbours learn after a detection delay."""
        delay = constants.FAILURE_DETECT_US if detect_delay_us is None else detect_delay_us
        node.fail()
        for port in node.ports:
            if port.link is None:
                continue
            self._notify_belief(port.link.other_end(port), up=False, delay=delay)

    def recover_node(self, node: Node, detect_delay_us: Optional[float] = None) -> None:
        delay = constants.RECOVERY_DETECT_US if detect_delay_us is None else detect_delay_us
        node.recover()
        for port in node.ports:
            if port.link is None:
                continue
            self._notify_belief(port.link.other_end(port), up=True, delay=delay)

    def fail_link(self, link: Link, detect_delay_us: Optional[float] = None) -> None:
        """Cut a link; both attached switches learn after a detection delay."""
        delay = constants.FAILURE_DETECT_US if detect_delay_us is None else detect_delay_us
        link.fail()
        self._notify_belief(link.a, up=False, delay=delay)
        self._notify_belief(link.b, up=False, delay=delay)

    def recover_link(self, link: Link, detect_delay_us: Optional[float] = None) -> None:
        delay = constants.RECOVERY_DETECT_US if detect_delay_us is None else detect_delay_us
        link.recover()
        self._notify_belief(link.a, up=True, delay=delay)
        self._notify_belief(link.b, up=True, delay=delay)

    def _notify_belief(self, port: Port, up: bool, delay: float) -> None:
        node = port.node
        if isinstance(node, L3Switch):
            self.sim.schedule(delay, node.set_port_belief, port, up)


# -- the Appendix-D testbed -----------------------------------------------------

#: Addresses used throughout the reproduction. Internal racks live under
#: 10.0.<rack>.0/24, external hosts under 172.16.0.0/16, and each RedPlane
#: switch is addressable at a loopback under 10.254.0.0/24 (§5.1.2 assigns
#: an IP address to each RedPlane switch for protocol traffic).
INTERNAL_PREFIX = ip_aton("10.0.0.0")
EXTERNAL_PREFIX = ip_aton("172.16.0.0")
SWITCH_LOOPBACK_PREFIX = ip_aton("10.254.0.0")


@dataclass
class Testbed:
    """Handles to every element of the constructed testbed."""

    sim: Simulator
    topology: Topology
    cores: List[L3Switch] = field(default_factory=list)
    aggs: List[L3Switch] = field(default_factory=list)
    tors: List[L3Switch] = field(default_factory=list)
    servers: List[Host] = field(default_factory=list)      # internal, 2 per rack
    externals: List[Host] = field(default_factory=list)    # behind the core layer
    store_servers: List[Host] = field(default_factory=list)

    def node(self, name: str) -> Node:
        return self.topology.nodes[name]

    def host_by_ip(self, ip: int) -> Host:
        for host in self.servers + self.externals + self.store_servers:
            if host.ip == ip:
                return host
        raise KeyError(f"no host with ip {ip}")

    def anycast_to_aggs(self, ip: int, from_racks: bool = False) -> None:
        """Route the service address ``ip``/32 to the aggregation switches.

        Core switches ECMP it across both programmable switches — the
        anycast deployment of §4.3 — so traffic from outside reaches
        *some* app instance and RedPlane's lease migration covers the
        rest. ``from_racks`` adds the same route on the ToR uplinks for
        services that in-rack clients address directly; without it rack
        traffic reaches the aggs by the ToRs' default route.
        """
        for switch in self.cores + (self.tors if from_racks else []):
            agg_ports = [
                port
                for port in switch.ports
                if port.link is not None
                and port.link.other_end(port).node in self.aggs
            ]
            if agg_ports:
                switch.table.add(ip, 32, agg_ports)


AggFactory = Callable[[Simulator, str, int], L3Switch]
TorFactory = Callable[[Simulator, str, int], L3Switch]
HostFactory = Callable[[Simulator, str, int], Host]


def _default_agg_factory(sim: Simulator, name: str, loopback_ip: int) -> L3Switch:
    return L3Switch(sim, name)


def _default_tor_factory(sim: Simulator, name: str, ip: int) -> L3Switch:
    return L3Switch(sim, name)


def _default_host_factory(sim: Simulator, name: str, ip: int) -> Host:
    return Host(sim, name, ip)


def build_testbed(
    sim: Simulator,
    agg_factory: AggFactory = _default_agg_factory,
    tor_factory: TorFactory = _default_tor_factory,
    store_factory: HostFactory = _default_host_factory,
    link_loss: float = 0.0,
    link_reorder: float = 0.0,
) -> Testbed:
    """Construct the three-layer testbed of Appendix D.

    ``agg_factory(sim, name, loopback_ip)`` builds the two aggregation-layer
    switches; pass a factory producing programmable
    :class:`~repro.switch.asic.SwitchASIC` nodes to run in-switch apps.
    ``tor_factory(sim, name, ip)`` builds the two top-of-rack switches —
    the hook NetChain-style deployments use to make ``tor1`` programmable;
    the address handed to the factory is an otherwise-unused in-rack IP
    (``10.0.<rack>.250``) so a protocol-speaking ToR needs no extra
    routes: aggregation switches already send the rack prefix down to it.
    ``link_loss`` / ``link_reorder`` apply to the switch-to-switch fabric
    links only (host links stay clean), which is where replication traffic
    can be lost or reordered.
    """
    topo = Topology(sim)
    bed = Testbed(sim=sim, topology=topo)
    fabric_kwargs = {"loss_rate": link_loss, "reorder_rate": link_reorder}

    cores = [L3Switch(sim, f"core{i + 1}") for i in range(2)]
    aggs = [
        agg_factory(sim, f"agg{i + 1}", SWITCH_LOOPBACK_PREFIX + i + 1)
        for i in range(2)
    ]
    tors = [
        tor_factory(sim, f"tor{i + 1}", ip_aton(f"10.0.{i + 1}.250"))
        for i in range(2)
    ]
    for node in cores + aggs + tors:
        topo.add_node(node)
    bed.cores, bed.aggs, bed.tors = cores, aggs, tors

    # Fabric: full bipartite core<->agg and agg<->tor, plus a core peer link
    # so hosts attached to different core switches can reach each other.
    core_agg = {}
    for core in cores:
        for agg in aggs:
            core_agg[(core.name, agg.name)] = topo.connect(core, agg, **fabric_kwargs)
    agg_tor = {}
    for agg in aggs:
        for tor in tors:
            agg_tor[(agg.name, tor.name)] = topo.connect(agg, tor, **fabric_kwargs)
    core_peer = topo.connect(cores[0], cores[1], **fabric_kwargs)

    # Hosts: two workload servers and one state-store server per rack.
    for rack, tor in enumerate(tors, start=1):
        for h in (1, 2):
            host = Host(sim, f"s{rack}{h}", ip_aton(f"10.0.{rack}.{10 + h}"))
            topo.add_node(host)
            topo.connect(tor, host)
            bed.servers.append(host)
        store = store_factory(sim, f"st{rack}", ip_aton(f"10.0.{rack}.200"))
        topo.add_node(store)
        topo.connect(tor, store)
        bed.store_servers.append(store)

    # External hosts and the third store server hang off the core layer.
    for i in range(4):
        core = cores[i % 2]
        ext = Host(sim, f"e{i + 1}", ip_aton(f"172.16.0.{11 + i}"))
        topo.add_node(ext)
        topo.connect(core, ext)
        bed.externals.append(ext)
    store3 = store_factory(sim, "st3", ip_aton("172.16.0.200"))
    topo.add_node(store3)
    topo.connect(cores[0], store3)
    bed.store_servers.append(store3)

    _install_routes(bed, core_agg, agg_tor, core_peer)
    return bed


def _host_port(host: Host) -> Port:
    """The switch-side port of the link attaching ``host``."""
    link = host.nic.link
    assert link is not None
    return link.other_end(host.nic)


def _install_routes(bed: Testbed, core_agg, agg_tor, core_peer) -> None:
    cores, aggs, tors = bed.cores, bed.aggs, bed.tors

    def switch_end(link: Link, switch: L3Switch) -> Port:
        return link.a if link.a.node is switch else link.b

    # --- ToR switches: /32 to local hosts, everything else up both aggs.
    for tor in tors:
        uplinks = [switch_end(agg_tor[(agg.name, tor.name)], tor) for agg in aggs]
        tor.table.add(0, 0, uplinks)
        for host in bed.servers + bed.store_servers:
            if host.nic.link and _host_port(host).node is tor:
                tor.table.add(host.ip, 32, [_host_port(host)])

    # --- Aggregation switches: racks down, everything else up both cores.
    for agg in aggs:
        downlinks = {
            tor.name: switch_end(agg_tor[(agg.name, tor.name)], agg) for tor in tors
        }
        for rack, tor in enumerate(tors, start=1):
            agg.table.add(ip_aton(f"10.0.{rack}.0"), 24, [downlinks[tor.name]])
        uplinks = [switch_end(core_agg[(core.name, agg.name)], agg) for core in cores]
        agg.table.add(0, 0, uplinks)

    # --- Core switches: internal down both aggs, /32 to attached hosts,
    #     peer link for hosts attached to the other core, and /32 routes to
    #     each RedPlane switch loopback via that specific switch only.
    for core in cores:
        agg_ports = [switch_end(core_agg[(core.name, agg.name)], core) for agg in aggs]
        core.table.add(INTERNAL_PREFIX, 16, agg_ports)
        peer_port = switch_end(core_peer, core)
        for host in bed.externals + [bed.store_servers[-1]]:
            port = _host_port(host)
            if port.node is core:
                core.table.add(host.ip, 32, [port])
            else:
                core.table.add(host.ip, 32, [peer_port])
        for i, agg in enumerate(aggs):
            loopback = SWITCH_LOOPBACK_PREFIX + i + 1
            core.table.add(
                loopback, 32, [switch_end(core_agg[(core.name, agg.name)], core)]
            )

    # --- Aggregation loopbacks: ToRs route them up; each agg owns its own.
    for i, agg in enumerate(aggs):
        loopback = SWITCH_LOOPBACK_PREFIX + i + 1
        for tor in tors:
            uplink = switch_end(agg_tor[(agg.name, tor.name)], tor)
            tor.table.add(loopback, 32, [uplink])
        # The peer agg's loopback is reachable through the core layer via
        # the default route already installed.
