"""Nodes, ports, and point-to-point links.

A :class:`Link` connects two :class:`Port` objects and models one-way
propagation latency and store-and-forward serialization delay. Links can
be administratively or fault-injected down; a packet entering a down link
is silently dropped, exactly like a cut fiber.

Everything else that degrades a link is a :class:`LinkImpairment` on one
direction — the *gray failure* modes that production link studies
(LinkGuardian) show are the hard case precisely because routing does not
react to them: random loss, FCS corruption (the frame crosses the wire,
burns bandwidth, and is discarded by the receiving MAC), duplication,
delay jitter (which reorders packets), degraded line rate, and one-way
blackholing (asymmetric partition). Impairments are per *direction*
(keyed by the sending port), drawn from the simulator's seeded RNG, and
leave routing beliefs untouched.

Each direction is a :class:`Lane`: what is fixed by the topology is
resolved once there, and ``Link.transmit`` does constant work per packet
while the direction is healthy (docs/PERFORMANCE.md). A hop is two
events: ``transmit``, scheduled by the sender (``L3Switch.forward``,
``Host.send``), and the ``_deliver`` it schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.net import constants
from repro.net.packet import FlowKey, Packet, TCPHeader, UDPHeader
from repro.net.simulator import Simulator
from repro.telemetry import trace as tt


@dataclass
class LinkImpairment:
    """Gray-failure parameters for one direction of a link.

    All probabilities are per transmitted packet; a zeroed impairment is
    indistinguishable from a healthy direction.
    """

    #: Random loss (drop reason ``gray_loss``).
    drop_rate: float = 0.0
    #: FCS corruption: the frame is serialized and delivered, then dropped
    #: by the receiving MAC — bandwidth is spent, the packet is not.
    corrupt_rate: float = 0.0
    #: The frame is duplicated on the wire (both copies delivered).
    duplicate_rate: float = 0.0
    #: Uniform extra propagation delay in ``[0, jitter_us]`` per packet;
    #: a jitter above the gap between two packets can reorder them.
    jitter_us: float = 0.0
    #: Line-rate multiplier in ``(0, 1]``; e.g. 0.1 = link degraded to 10%.
    bandwidth_scale: float = 1.0
    #: One-way blackhole: every packet in this direction dies silently
    #: (asymmetric partition — the reverse direction still works).
    blocked: bool = False

    def __post_init__(self) -> None:
        for rate_name in ("drop_rate", "corrupt_rate", "duplicate_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], got {rate}")
        if not self.jitter_us >= 0.0:  # NaN fails this comparison
            raise ValueError("jitter_us must be non-negative")
        if not 0.0 < self.bandwidth_scale <= 1.0:
            raise ValueError("bandwidth_scale must be in (0, 1]")

    def describe(self) -> str:
        """Compact ``key=value`` summary of the non-default fields."""
        parts = []
        if self.blocked:
            parts.append("blocked")
        for attr, default in (("drop_rate", 0.0), ("corrupt_rate", 0.0),
                              ("duplicate_rate", 0.0), ("jitter_us", 0.0),
                              ("bandwidth_scale", 1.0)):
            value = getattr(self, attr)
            if value != default:
                parts.append(f"{attr}={value:g}")
        return ",".join(parts) or "healthy"


class Node:
    """Base class for anything with ports: hosts, switches, servers."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []
        self.failed = False

    def new_port(self) -> "Port":
        port = Port(self, len(self.ports))
        self.ports.append(port)
        return port

    def receive(self, pkt: Packet, port: "Port") -> None:
        """Handle a packet arriving on ``port``. Subclasses override."""
        raise NotImplementedError

    def fail(self) -> None:
        """Fail-stop the node: drop all future traffic addressed to it."""
        self.failed = True

    def recover(self) -> None:
        self.failed = False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Port:
    """One attachment point of a node; at most one link per port."""

    def __init__(self, node: Node, index: int) -> None:
        self.node = node
        self.index = index
        self.link: Optional[Link] = None

    def send(self, pkt: Packet) -> None:
        """Transmit a packet onto the attached link, synchronously."""
        if self.link is None:
            raise RuntimeError(f"{self} has no link attached")
        self.link.transmit(pkt, self)

    @property
    def peer(self) -> Optional["Port"]:
        """The port at the far end of the attached link, if any."""
        if self.link is None:
            return None
        return self.link.other_end(self)

    def __repr__(self) -> str:
        return f"<Port {self.node.name}[{self.index}]>"


class Lane:
    """One direction of a :class:`Link`, as ``transmit`` needs it per packet.

    The direction label, the tx counter handles and the far-end port and
    node are fixed for the life of the topology, so they are resolved
    once here instead of per packet; the transmit queue's drain time and
    the direction's gray-failure impairment are the mutable rest.
    """

    __slots__ = ("src_port", "dst_port", "dst_node", "dir_name",
                 "ctr_tx_bytes", "ctr_tx_packets", "busy_until", "impairment")

    def __init__(self, link: "Link", src_port: Port, dst_port: Port) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.dst_node = dst_port.node
        self.dir_name = f"{src_port.node.name}->{dst_port.node.name}"
        m = link.sim.metrics
        self.ctr_tx_bytes = m.counter("link.tx_bytes", link=link.name,
                                      dir=self.dir_name)
        self.ctr_tx_packets = m.counter("link.tx_packets", link=link.name,
                                        dir=self.dir_name)
        #: Transmit-queue drain time: packets serialize one after another,
        #: so a burst queues (and TCP sees real bandwidth).
        self.busy_until = 0.0
        #: The direction's :class:`LinkImpairment`, or ``None`` if healthy.
        self.impairment: Optional[LinkImpairment] = None


def _new_flow_tag(tags: dict, raw: tuple) -> str:
    """Memo miss: format the raw 5-tuple as ``str(FlowKey)`` and keep it."""
    if len(tags) >= constants.CACHE_CAP:
        tags.clear()
    tag = tags[raw] = str(FlowKey(*raw))
    return tag


def flow_tag_of(sim: Simulator, key: FlowKey) -> str:
    """``str(key)`` through the run's 5-tuple memo (``sim.flow_tags``);
    a :class:`FlowKey` equals its raw tuple, so it is its own memo key."""
    tags = sim.flow_tags
    return tags.get(key) or _new_flow_tag(tags, key)


def _flow_tag(sim: Simulator, pkt: Packet) -> str:
    """``str(pkt.flow_key())`` through the same memo, without building
    the :class:`FlowKey` on a hit."""
    ip = pkt.ip
    l4 = pkt.l4
    if isinstance(l4, (UDPHeader, TCPHeader)):
        raw = (ip.src, ip.dst, ip.proto, l4.sport, l4.dport)
    else:
        raw = (ip.src, ip.dst, ip.proto, 0, 0)
    tags = sim.flow_tags
    return tags.get(raw) or _new_flow_tag(tags, raw)


class Link:
    """A full-duplex point-to-point link between two ports."""

    def __init__(
        self,
        sim: Simulator,
        a: Port,
        b: Port,
        latency_us: float = constants.LINK_LATENCY_US,
        bandwidth_gbps: float = constants.LINK_BANDWIDTH_GBPS,
        name: Optional[str] = None,
    ) -> None:
        # Comparisons written so that NaN fails them.
        if not latency_us >= 0.0:
            raise ValueError(
                f"latency_us must be non-negative, got {latency_us}")
        if not bandwidth_gbps > 0.0:
            raise ValueError(
                f"bandwidth_gbps must be positive, got {bandwidth_gbps}")
        if a.link is not None or b.link is not None:
            raise RuntimeError("port already has a link attached")
        self.sim = sim
        self.a = a
        self.b = b
        a.link = self
        b.link = self
        self.latency_us = latency_us
        self.bandwidth_gbps = bandwidth_gbps
        self.up = True
        self.name = name or f"{a.node.name}<->{b.node.name}"
        # Counter handles are cached (here and per direction in the lanes)
        # so the transmit hot path pays no registry lookup. (Parallel
        # links with an identical default name share instruments; name
        # them explicitly if per-link numbers matter.)
        m = sim.metrics
        self._lane_a = Lane(self, a, b)
        self._lane_b = Lane(self, b, a)
        self._ctr_duplicated = m.counter("link.duplicated", link=self.name)
        #: ``link.drops{link,reason}`` handles, created lazily per reason;
        #: read with ``sim.metrics.total("link.drops", reason=...)``.
        self._ctr_drops: Dict[str, object] = {}

    def other_end(self, port: Port) -> Port:
        return self._lane_of(port).dst_port

    def _lane_of(self, src_port: Port) -> "Lane":
        if src_port is self.a:
            return self._lane_a
        if src_port is self.b:
            return self._lane_b
        raise ValueError("port is not an end of this link")

    def _lanes(self, src_port: Optional[Port] = None) -> Tuple["Lane", ...]:
        """The lane sent from ``src_port``, or both with ``None``."""
        if src_port is None:
            return (self._lane_a, self._lane_b)
        return (self._lane_of(src_port),)

    def serialization_delay_us(self, pkt: Packet) -> float:
        """Store-and-forward delay: bits / line rate."""
        bits = pkt.wire_size * 8
        return bits / (self.bandwidth_gbps * 1000.0)

    def _drop(self, pkt: Packet, lane: "Lane", reason: str,
              nbytes: int) -> None:
        ctr = self._ctr_drops.get(reason)
        if ctr is None:
            ctr = self._ctr_drops[reason] = self.sim.metrics.counter(
                "link.drops", link=self.name, reason=reason
            )
        ctr.inc()
        self.sim.tracer.emit(
            tt.PACKET_DROP,
            link=self.name,
            dir=lane.dir_name,
            reason=reason,
            bytes=nbytes,
            uid=pkt.meta.get("uid", 0),
        )

    def transmit(self, pkt: Packet, src_port: Port) -> None:
        """Send a packet from ``src_port`` toward the other end — the
        first event of a hop, or ``Port.send``'s synchronous call.

        A direction in the trivial condition (link up, no impairment)
        draws no randomness and can drop nothing at the sending end, so
        it skips straight from the send record to the serialization
        arithmetic; anything else runs every verdict below. The choice is re-made per packet from the link's
        current state, and both branches produce the same records,
        counters and event for a packet both could carry.
        """
        if src_port is self.a:
            lane = self._lane_a
        elif src_port is self.b:
            lane = self._lane_b
        else:
            raise ValueError("port is not an end of this link")
        sim = self.sim
        # Span correlation: a packet gets its uid on first wire contact and
        # keeps it hop to hop (meta travels with the object, not the wire).
        meta = pkt.meta
        uid = meta.get("uid")
        if uid is None:
            uid = meta["uid"] = sim.new_uid()
        # Flow tag computed once per packet lifetime and cached in meta so
        # per-flow timelines can filter sends without joining other records.
        flow = meta.get("flow_s")
        if flow is None and pkt.ip is not None:
            flow = meta["flow_s"] = _flow_tag(sim, pkt)
        nbytes = pkt.wire_size
        kind = meta.get("rp_kind", "app")
        parent = meta.get("parent_uid")
        # The send record marks the packet *entering* the link direction —
        # emitted before the down/partition/gray-loss verdicts so every
        # wire-level drop pairs with an origin (span completeness).
        # ``flow`` and ``parent`` are present only when set, so each
        # combination is its own row: a literal key tuple (a constant,
        # shared by every record of the shape) and a tuple of values.
        emit = sim.tracer.emit
        if parent is None:
            if flow is not None:
                emit(
                    tt.PACKET_SEND,
                    ("link", "dir", "bytes", "uid", "kind", "flow"),
                    (self.name, lane.dir_name, nbytes, uid, kind, flow))
            else:
                emit(
                    tt.PACKET_SEND, ("link", "dir", "bytes", "uid", "kind"),
                    (self.name, lane.dir_name, nbytes, uid, kind))
        elif flow is not None:
            emit(
                tt.PACKET_SEND,
                ("link", "dir", "bytes", "uid", "kind", "flow", "parent"),
                (self.name, lane.dir_name, nbytes, uid, kind, flow, parent))
        else:
            emit(
                tt.PACKET_SEND,
                ("link", "dir", "bytes", "uid", "kind", "parent"),
                (self.name, lane.dir_name, nbytes, uid, kind, parent))
        now = sim.now
        impairment = lane.impairment
        if self.up and impairment is None:
            lane.ctr_tx_bytes.value += nbytes
            lane.ctr_tx_packets.value += 1
            ser_us = (nbytes * 8) / (self.bandwidth_gbps * 1000.0)
            start = lane.busy_until
            if start < now:
                start = now
            lane.busy_until = start + ser_us
            sim.schedule_at(now + ((start + ser_us - now) + self.latency_us),
                            self._deliver, pkt, lane)
            return
        if not self.up:
            self._drop(pkt, lane, "down", nbytes)
            return
        if impairment.blocked:
            # Asymmetric partition: this direction is a silent blackhole.
            self._drop(pkt, lane, "partition", nbytes)
            return
        lane.ctr_tx_bytes.value += nbytes
        lane.ctr_tx_packets.value += 1
        rng = sim.rng
        if impairment.drop_rate > 0.0 and rng.random() < impairment.drop_rate:
            self._drop(pkt, lane, "gray_loss", nbytes)
            return
        corrupted = False
        duplicated = False
        jitter_us = 0.0
        if impairment.corrupt_rate > 0.0:
            corrupted = rng.random() < impairment.corrupt_rate
        if impairment.duplicate_rate > 0.0:
            duplicated = rng.random() < impairment.duplicate_rate
        if impairment.jitter_us > 0.0:
            jitter_us = rng.random() * impairment.jitter_us
        # Store-and-forward with per-direction serialization queueing.
        start = max(now, lane.busy_until)
        copies = 2 if duplicated else 1
        rate_gbps = self.bandwidth_gbps * impairment.bandwidth_scale
        ser_us = (nbytes * 8) / (rate_gbps * 1000.0)
        lane.busy_until = start + ser_us * copies
        delay = (start + ser_us - now) + self.latency_us + jitter_us
        sim.schedule(delay, self._deliver, pkt, lane, corrupted)
        if duplicated:
            # The duplicate serializes right behind the original and is a
            # distinct object downstream (each copy is processed once); it
            # gets its own span uid with the original as parent.
            self._ctr_duplicated.inc()
            dup_pkt = pkt.copy()
            dup_uid = dup_pkt.meta["uid"] = sim.new_uid()
            dup_pkt.meta["parent_uid"] = uid
            emit(
                tt.PACKET_DUP,
                link=self.name,
                dir=lane.dir_name,
                bytes=nbytes,
                uid=dup_uid,
                parent=uid,
            )
            sim.schedule(
                delay + ser_us, self._deliver, dup_pkt, lane, corrupted
            )

    def _deliver(self, pkt: Packet, lane: "Lane",
                 corrupted: bool = False) -> None:
        if not self.up:
            self._drop(pkt, lane, "down", pkt.wire_size)
            return
        if corrupted:
            # The receiving MAC discards the frame on FCS mismatch; the
            # bandwidth was spent, the packet never reaches the node.
            self._drop(pkt, lane, "corrupt", pkt.wire_size)
            return
        node = lane.dst_node
        if node.failed:
            self._drop(pkt, lane, "node_failed", pkt.wire_size)
            return
        self.sim.tracer.emit(
            tt.PACKET_DELIVER, ("link", "dir", "node", "uid"),
            (self.name, lane.dir_name, node.name, pkt.meta.get("uid", 0)))
        node.receive(pkt, lane.dst_port)

    # -- failure injection ------------------------------------------------------

    def fail(self) -> None:
        """Cut the link; in-flight packets are also lost."""
        self.up = False

    def recover(self) -> None:
        self.up = True

    def impair(self, impairment: LinkImpairment,
               direction: Optional[Port] = None) -> None:
        """Install a gray-failure impairment on one or both directions.

        ``direction`` is the *sending* port of the affected direction;
        ``None`` impairs both directions with the same parameters.
        """
        for lane in self._lanes(direction):
            lane.impairment = impairment

    def clear_impairments(self, direction: Optional[Port] = None) -> None:
        """Lift impairments from one direction (or, with ``None``, all)."""
        for lane in self._lanes(direction):
            lane.impairment = None

    def impairment_of(self, direction: Port) -> Optional[LinkImpairment]:
        """The impairment active on the direction sent from ``direction``."""
        return self._lane_of(direction).impairment

    @property
    def impaired(self) -> bool:
        return any(lane.impairment is not None for lane in self._lanes())

    def backlog_us(self) -> float:
        """Summed transmit-queue drain time across both directions, in
        simulated microseconds from *now* — the queue-depth number the
        observability heartbeat reports. 0.0 when both directions are
        idle. Pure read of serialization state; no side effects."""
        now = self.sim.now
        a = self._lane_a.busy_until - now
        b = self._lane_b.busy_until - now
        return (a if a > 0.0 else 0.0) + (b if b > 0.0 else 0.0)

    # -- registry-backed accounting views ---------------------------------------

    def total_tx_bytes(self) -> int:
        return (int(self._lane_a.ctr_tx_bytes.value)
                + int(self._lane_b.ctr_tx_bytes.value))

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"<Link {self.name} {state}>"


class SinkNode(Node):
    """A node that records every packet it receives; useful in tests."""

    def __init__(self, sim: Simulator, name: str = "sink") -> None:
        super().__init__(sim, name)
        self.received: List[Packet] = []
        self.receive_times: List[float] = []
        self.on_receive: Optional[Callable[[Packet, Port], None]] = None

    def receive(self, pkt: Packet, port: Port) -> None:
        self.received.append(pkt)
        self.receive_times.append(self.sim.now)
        if self.on_receive is not None:
            self.on_receive(pkt, port)
