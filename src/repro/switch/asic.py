"""The programmable switch ASIC: pipeline + traffic manager + peripherals.

:class:`SwitchASIC` extends the plain L3 switch with everything the paper's
design leans on:

* a match-action :class:`~repro.switch.pipeline.Pipeline` of control blocks
  (the application and the RedPlane protocol engine);
* mirroring sessions with truncation (retransmission buffering, §5.2);
* a hardware packet generator (snapshot replication, §5.4);
* a slow control-plane channel (table installs, new-flow slow path);
* packet-buffer occupancy accounting (Fig 15);
* static resource accounting (Table 2).

A packet addressed to the switch's own protocol IP (§5.1.2 assigns each
RedPlane switch an IP) still traverses the pipeline — that is how state
store responses reach the protocol engine — but is dropped rather than
forwarded if no block consumes it.
"""

from __future__ import annotations

from typing import Dict

from repro.net import constants
from repro.net.links import Port
from repro.net.packet import Packet
from repro.net.routing import L3Switch
from repro.net.simulator import Simulator
from repro.switch.control_plane import SwitchControlPlane
from repro.switch.mirror import MirrorSession, PassHandler
from repro.switch.pipeline import ControlBlock, Pipeline, PipelineContext, Verdict
from repro.switch.pktgen import PacketGenerator
from repro.switch.resources import ResourceModel

#: An instance with no ``__init__`` run: :meth:`SwitchASIC.process` fills
#: its context's fields, so a packet enters no generated constructor.
_new = object.__new__


class SwitchASIC(L3Switch):
    """A Tofino-like programmable switch."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: int,
    ) -> None:
        super().__init__(sim, name)
        #: The switch's protocol address (for RedPlane messages).
        self.ip = ip
        self.pipeline = Pipeline()
        self.control_plane = SwitchControlPlane(self)
        self.pktgen = PacketGenerator(self)
        self.resources = ResourceModel()
        #: Packet-buffer capacity; exceeding it is a modelling error.
        self.buffer_bytes = constants.SWITCH_BUFFER_BYTES
        self._mirror_sessions: Dict[int, MirrorSession] = {}
        self._next_mirror_id = 1
        # All per-switch accounting lives in the run's metric registry,
        # labeled by switch name; handles are cached for the hot path and
        # the historical attributes below are properties over them.
        m = sim.metrics
        self._g_buffer = m.gauge("switch.buffer_occupancy_bytes", switch=name)
        self._g_buffer_peak = m.gauge("switch.buffer_peak_bytes", switch=name)
        self._c_bytes_original_out = m.counter(
            "switch.bytes_original_out", switch=name)
        self._c_bytes_protocol_out = m.counter(
            "switch.bytes_protocol_out", switch=name)
        self._c_bytes_protocol_in = m.counter(
            "switch.bytes_protocol_in", switch=name)
        self._c_bytes_chain_transit = m.counter(
            "switch.bytes_chain_transit", switch=name)
        self._c_pkts_processed = m.counter("switch.pkts_processed", switch=name)

    # -- peripherals -----------------------------------------------------------

    def new_mirror_session(self, handler: PassHandler) -> MirrorSession:
        session = MirrorSession(self, self._next_mirror_id, handler)
        self._mirror_sessions[self._next_mirror_id] = session
        self._next_mirror_id += 1
        return session

    def add_block(self, block: ControlBlock) -> None:
        """Append a control block and account its resources."""
        self.pipeline.append(block)
        self.resources.register(block.resource_usage())

    # -- buffer accounting --------------------------------------------------------

    def buffer_acquire(self, nbytes: int) -> None:
        self._g_buffer.add(nbytes)
        self._g_buffer_peak.set_max(self._g_buffer.value)
        if self._g_buffer.value > self.buffer_bytes:
            raise RuntimeError(
                f"{self.name}: packet buffer overflow "
                f"({int(self._g_buffer.value)} > {self.buffer_bytes} bytes)"
            )

    def buffer_release(self, nbytes: int) -> None:
        self._g_buffer.add(-nbytes)
        if self._g_buffer.value < 0:
            raise AssertionError(f"{self.name}: negative buffer occupancy")

    @property
    def buffer_occupancy(self) -> int:
        """Packet-buffer bytes held by mirrored/held packets (gauge view)."""
        return int(self._g_buffer.value)

    @property
    def peak_buffer_occupancy(self) -> int:
        return int(self._g_buffer_peak.value)

    @peak_buffer_occupancy.setter
    def peak_buffer_occupancy(self, value: int) -> None:
        # Experiments reset the peak after warm-up (Fig 15's steady state).
        self._g_buffer_peak.set(value)

    # -- packet processing -----------------------------------------------------------

    def receive(self, pkt: Packet, port: Port) -> None:
        self.process(pkt)

    def inject(self, pkt: Packet) -> None:
        """Entry point for generated / CPU-reinjected packets."""
        # Injected packets never crossed a link, so they have no span uid
        # yet; tag here so requests they trigger can reference a parent.
        self.sim.tag_packet(pkt)
        self.process(pkt)

    def process(self, pkt: Packet) -> None:
        fp = self.sim.fastpath
        if fp is not None and fp.asic_process(self, pkt):
            # A flow-cache entry replayed the pipeline decision;
            # the replay's side effects match this path bit for bit.
            return
        self._c_pkts_processed.value += 1
        if pkt.meta.get("rp_kind") == "response":
            # Piggybacked bytes are counted when the released output leaves.
            piggyback = int(pkt.meta.get("rp_piggyback_len", 0))
            self._c_bytes_protocol_in.value += pkt.wire_size - piggyback
        # PipelineContext(pkt=pkt, now=self.sim.now), field by field.
        ctx = _new(PipelineContext)
        ctx.pkt = pkt
        ctx.now = self.sim.now
        ctx.verdict = Verdict.FORWARD
        ctx.block_obj = None
        ctx.emitted = []
        ctx.meta = {}
        ctx._accessed_arrays = set()
        self.pipeline.run(ctx, self)
        if ctx.verdict is Verdict.FORWARD:
            if pkt.ip is not None and pkt.ip.dst == self.ip:
                # Addressed to the switch itself but no block consumed it.
                self._drop_to_self()
            else:
                self._egress(pkt)
        elif ctx.verdict is Verdict.PUNT:
            self.control_plane.punt(pkt)
        for out in ctx.emitted:
            self._egress(out)

    def _drop_to_self(self) -> None:
        """Count a packet addressed to the switch that no block consumed."""
        self.sim.metrics.counter(
            "switch.drops", switch=self.name, reason="to_self"
        ).inc()

    def emit_from_pipeline(self, pkt: Packet) -> None:
        """Send a pipeline-generated packet (e.g. a retransmission)."""
        self._egress(pkt)

    def _egress(self, pkt: Packet) -> None:
        kind = pkt.meta.get("rp_kind")
        if kind == "chain":
            self._c_bytes_chain_transit.value += pkt.wire_size
        elif kind in ("request", "response"):
            # Piggybacked original bytes ride inside protocol messages but
            # are application traffic; only the encapsulation + RedPlane
            # header count as replication overhead (Fig 10's accounting).
            piggyback = int(pkt.meta.get("rp_piggyback_len", 0))
            self._c_bytes_protocol_out.value += pkt.wire_size - piggyback
            self._c_bytes_original_out.value += piggyback
        else:
            self._c_bytes_original_out.value += pkt.wire_size
        self.forward(pkt)

    # -- traffic accounting views (registry-backed) ---------------------------------

    @property
    def bytes_original_out(self) -> int:
        return int(self._c_bytes_original_out.value)

    @property
    def bytes_protocol_out(self) -> int:
        return int(self._c_bytes_protocol_out.value)

    @property
    def bytes_protocol_in(self) -> int:
        return int(self._c_bytes_protocol_in.value)

    @property
    def bytes_chain_transit(self) -> int:
        """Store-to-store chain traffic merely transiting this switch; not
        part of the app switch's own send/receive accounting (Fig 10)."""
        return int(self._c_bytes_chain_transit.value)

    @property
    def pkts_processed(self) -> int:
        return int(self._c_pkts_processed.value)

    # -- bandwidth overhead (Fig 10) -----------------------------------------------

    def protocol_byte_fraction(self) -> float:
        """Fraction of this switch's traffic that is RedPlane protocol bytes."""
        protocol = self.bytes_protocol_out + self.bytes_protocol_in
        total = protocol + self.bytes_original_out
        if total == 0:
            return 0.0
        return protocol / total
