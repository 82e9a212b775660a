"""The RedPlane protocol engine: the switch-side data-plane component.

This control block is the reproduction of the paper's ``RedPlaneIngress`` /
``RedPlaneEgress`` P4 control blocks (Appendix B). It wraps a developer's
:class:`~repro.core.app.InSwitchApp` and implements, entirely in the data
plane:

* **lease-based state ownership** (§5.3) — a packet may only touch state
  while this switch holds the flow's lease; otherwise a lease request is
  sent to the state store with the packet piggybacked, and the store's
  buffering of that request doubles as state migration during failover;
* **piggybacking** (§5.1) — output packets ride inside replication
  requests and are released only when the acknowledgment returns, using
  the network + store DRAM as delay-line memory instead of switch buffer;
* **sequencing** (§5.2) — per-flow monotonically increasing sequence
  numbers let the store discard stale updates despite reordering;
* **switch-side retransmission** (§5.2) — a *truncated* copy of every
  replication request circulates through an egress-to-egress mirror
  session and is resent if no acknowledgment arrives in time; the event
  that settles the request (its ack, a newer snapshot epoch, teardown)
  releases the copy through one ledger of in-flight copies;
* **read gating** — packets that only read state pass through at line
  rate (the zero-overhead fast path of Fig 8/9) unless a state update is
  still in flight, in which case they are buffered through the network
  with a special request type until the latest update is acknowledged.

Per-flow protocol state (lease expiry, current sequence number, last
acknowledged sequence number) lives in register arrays, sized by
``max_flows`` — exactly the SRAM the paper's Table 2 accounts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.mutation import mutation_active
from repro.net import constants
from repro.net.links import flow_tag_of
from repro.net.packet import FlowKey, Packet, UDPHeader
from repro.switch.asic import SwitchASIC
from repro.switch.mirror import MirrorCopy
from repro.switch.pipeline import ControlBlock, PipelineContext
from repro.switch.registers import RegisterArray
from repro.core.app import AppVerdict, InSwitchApp
from repro.core.flowstate import FlowStateView
from repro.core.protocol import (
    MessageType,
    RedPlaneMessage,
    STORE_UDP_PORT,
    SWITCH_UDP_PORT,
    make_protocol_packet,
    pack_packets,
    parse_protocol_packet,
    unpack_packets,
)
from repro.statestore.server import CHAIN_UDP_PORT
from repro.statestore.sharding import ShardMap
from repro.telemetry import trace as tt

#: UDP ports whose traffic is never treated as application traffic.
_PROTOCOL_PORTS = {STORE_UDP_PORT, SWITCH_UDP_PORT, CHAIN_UDP_PORT}

#: Tag prefixing a held packet inside a lease-request piggyback: the tag
#: plus an 8-byte hold nonce let the switch re-inject each *hold* exactly
#: once even when the ack carrying it is duplicated in the network.
_HOLD_TAG = b"RPHOLD\x01"
_HOLD_HEADER_LEN = len(_HOLD_TAG) + 8

#: A request record's ``kind``: the message type's name in lower case,
#: looked up so that a request enters no ``enum`` frame for it.
_KIND_NAME = {t: t.name.lower() for t in MessageType}

#: An instance with no ``__init__`` run: the per-write messages are built
#: field by field, so a write enters no generated constructor.
_new = object.__new__


class RedPlaneMode(enum.Enum):
    """The two consistency modes of §4.

    Which one an engine runs is a property of its app
    (:meth:`~repro.core.app.InSwitchApp.snapshot_structures`), read back
    as :attr:`RedPlaneEngine.mode`; it is not configurable.
    """

    LINEARIZABLE = "linearizable"
    BOUNDED_INCONSISTENCY = "bounded"


@dataclass
class RedPlaneConfig:
    """Tunable protocol parameters (defaults match the prototype)."""

    lease_period_us: float = constants.LEASE_PERIOD_US
    renew_interval_us: float = constants.LEASE_RENEW_INTERVAL_US
    retransmit_timeout_us: float = constants.RETRANSMIT_TIMEOUT_US
    #: T_snap of bounded-inconsistency apps (§5.4); Fig 11 sweeps it.
    snapshot_period_us: float = constants.SNAPSHOT_PERIOD_US
    max_flows: int = 4096
    #: Record input events for linearizability checking (the outputs are
    #: what the receiver sees). Off by default: the history grows by one
    #: event per app packet, and only a linearizability check reads it,
    #: so the code that checks opts in.
    record_history: bool = False


@dataclass(slots=True)
class HistoryEvent:
    """One input event of a history (Definition 2)."""

    key: FlowKey
    trace_id: int
    time: float
    switch: str


@dataclass
class RetransmitState:
    """Backoff state of one circulating truncated request copy (§5.2).

    Lives on the mirror copy as its ``state`` and is the single mutable
    record the pass handler reads and writes each egress pass. It decides
    when the copy is resent, never whether it is released: the event that
    settles the request does that (:meth:`RedPlaneEngine._release`).
    """

    kind: str             # "write" | "lease_new" | "renew" | "snapshot"
    msg: RedPlaneMessage  # header-only request resent on timeout
    sent_at: float        # simulated time of the last (re)send
    timeout_us: float     # current deadline (grows by the backoff factor)
    resends: int = 0      # timeouts fired so far (storm observability)
    uid: int = 0          # span uid of the last (re)sent request packet


class RedPlaneEngine(ControlBlock):
    """RedPlane-enabled application: protocol engine wrapping an app."""

    name = "redplane"

    def __init__(
        self,
        switch: SwitchASIC,
        app: InSwitchApp,
        shard_map: ShardMap,
        config: Optional[RedPlaneConfig] = None,
    ) -> None:
        self.switch = switch
        self.app = app
        self.shard_map = shard_map
        self.config = config or RedPlaneConfig()
        cfg = self.config
        #: Derived from the app once, here; nothing sets it afterwards.
        self.mode = (
            RedPlaneMode.BOUNDED_INCONSISTENCY
            if app.snapshot_structures()
            else RedPlaneMode.LINEARIZABLE
        )
        #: The period lease beliefs derive from: the stores' grant, doubled
        #: by the seeded bug ``engine_lease_drift`` (repro.mutation).
        self._lease_period_us = cfg.lease_period_us * (
            2.0 if mutation_active("engine_lease_drift") else 1.0)
        #: The run's ``InvariantMonitor``, told of every lease install.
        self.monitor = None

        # Flow-key -> register index. Models the hash-indexed flow table.
        self._flow_idx: Dict[FlowKey, int] = {}
        self._next_idx = 0
        self._free_indices: List[int] = []

        n = cfg.max_flows
        self.reg_lease_expiry = RegisterArray(f"{switch.name}.rp.lease_expiry", n, 64)
        self.reg_cur_seq = RegisterArray(f"{switch.name}.rp.cur_seq", n, 32)
        self.reg_last_acked = RegisterArray(f"{switch.name}.rp.last_acked", n, 32)
        self.reg_lease_pending = RegisterArray(f"{switch.name}.rp.lease_pending", n, 1)
        self.reg_last_renew = RegisterArray(f"{switch.name}.rp.last_renew", n, 64)
        # Application per-flow state values, one register array per field.
        self.state_regs = [
            RegisterArray(f"{switch.name}.rp.state.{fname}", n, 32)
            for fname, _default in app.state_spec.fields
        ]
        self._state_installed: Set[int] = set()

        # Egress-to-egress mirror session used as the retransmission buffer;
        # copies are truncated to the protocol headers (§5.2) — the mirror
        # buffers ~the RedPlane header, never payload.
        self.mirror = switch.new_mirror_session(self._mirror_pass)

        #: Invoked for snapshot acknowledgments (bounded-inconsistency mode).
        self.snapshot_ack_handler: Optional[Callable[[RedPlaneMessage], None]] = None

        # The ledger of circulating mirror copies: request -> {seq: copy}.
        # A request is ``(kind, flow index)`` or ``("snapshot", (store
        # key, slot))``. Whatever settles a request calls _release: the
        # hardware drops a settled copy on its next egress pass, and the
        # simulator collapses that to an immediate release.
        self._inflight: Dict[Tuple[str, object], Dict[int, MirrorCopy]] = {}

        self.history: List[HistoryEvent] = []
        # Protocol statistics live in the run's metric registry, one
        # counter per stat labeled by switch; :attr:`stats` reads them.
        metrics = switch.sim.metrics
        self.tracer = switch.sim.tracer
        self._c = {
            stat: metrics.counter(f"redplane.{stat}", switch=switch.name)
            for stat in (
                "app_packets",
                "fast_path_forwards",
                "writes_replicated",
                "reads_buffered",
                "lease_requests",
                "lease_renewals",
                "retransmissions",
                "acks_received",
                "piggybacks_released",
                "piggyback_dups_dropped",
                "stale_acks_ignored",
            )
        }
        # Hold-nonces of every held packet already re-injected into the
        # pipeline. A lease-new ack can arrive more than once for the same
        # request (network duplication, or acks to both the original and a
        # resend); re-processing the held packet would double-apply the
        # application update — a linearizability violation — whereas
        # suppressing a genuine second hold is at most a lost input,
        # which §4.2 permits. The nonce is minted per *hold* so two
        # distinct held packets with identical wire bytes (apps whose
        # requests carry no client-side id) are never conflated.
        self._reinjected: set = set()
        #: Replication round trips as the switch observes them: time from a
        #: request's (re)send to the release of its mirrored copy.
        self._h_ack_rtt = metrics.histogram(
            "redplane.ack_rtt_us", switch=switch.name
        )
        #: Resend copies each acknowledged request needed before release —
        #: 0 on a healthy path; the distribution's tail is the resend-storm
        #: signal the chaos scorecard ranks fault classes by.
        self._h_resends = metrics.histogram(
            "redplane.resends_per_request", switch=switch.name
        )
        self._c_reclaimed = metrics.counter(
            "redplane.flows_reclaimed", switch=switch.name
        )
        self._g_flow_table = metrics.gauge(
            "redplane.flow_table_entries", switch=switch.name
        )

    @property
    def stats(self) -> Dict[str, int]:
        """This engine's ``redplane.<stat>`` counters, as plain ints."""
        return {stat: int(c.value) for stat, c in self._c.items()}

    # ------------------------------------------------------------------
    # pipeline entry point
    # ------------------------------------------------------------------

    def process(self, ctx: PipelineContext, switch: SwitchASIC) -> bool:
        pkt = ctx.pkt
        l4 = pkt.l4
        if isinstance(l4, UDPHeader) and (
            l4.dport in _PROTOCOL_PORTS or l4.sport in _PROTOCOL_PORTS
        ):
            if (
                pkt.ip is not None
                and pkt.ip.dst == self.switch.ip
                and l4.dport == SWITCH_UDP_PORT
            ):
                self._handle_response(ctx)
                ctx.consume()
                return False
            # Protocol traffic in transit (other switches / store chain):
            # forward untouched, never app-processed.
            return True

        key = self.app.partition_key(pkt)
        if key is None:
            return True  # not application traffic

        self._c["app_packets"].value += 1
        if self.config.record_history and not pkt.meta.get("rp_reinjected"):
            self._record(key, pkt)

        if self.mode is RedPlaneMode.BOUNDED_INCONSISTENCY:
            # Bounded mode has no per-packet coordination at all (§4.4):
            # state lives in lazy-snapshot structures replicated
            # asynchronously, several switches may update their own copies
            # concurrently, and recovery restores the last snapshot — so
            # no lease, no sequencing, no piggybacking on this path.
            return self._bounded_path(ctx, key)

        idx = self._flow_index(key)
        now = self.switch.sim.now

        lease_expiry = self.reg_lease_expiry.read(ctx, idx)
        if lease_expiry <= now:
            self._no_lease_path(ctx, key, idx, now, lease_expiry)
            return False

        return self._leased_path(ctx, key, idx, now)

    # ------------------------------------------------------------------
    # packet paths
    # ------------------------------------------------------------------

    def _no_lease_path(
        self,
        ctx: PipelineContext,
        key: FlowKey,
        idx: int,
        now: float,
        lease_expiry: float = 0.0,
    ) -> None:
        """No valid lease: request one, piggybacking the packet (§5.1/§5.3)."""
        pending = self.reg_lease_pending.access(ctx, idx, lambda old: (1, old))
        if not pending and lease_expiry > 0:
            # The flow held a lease before; it has lapsed locally.
            self.tracer.emit(
                tt.LEASE_EXPIRY,
                switch=self.switch.name,
                flow=flow_tag_of(self.switch.sim, key),
                expired_at=lease_expiry,
            )
        msg = RedPlaneMessage(
            seq=0,
            msg_type=MessageType.LEASE_NEW_REQ,
            flow_key=key,
            piggyback=pack_packets([self._wrap_hold(ctx.pkt.to_bytes())]),
        )
        req = self._send_request(ctx, msg, parent_uid=ctx.pkt.meta.get("uid"))
        self._c["lease_requests"].value += 1
        if not pending:
            # Only the first request per flow is retransmitted; piggybacked
            # packets on later requests may be lost, which the correctness
            # model permits (a lost input, §4.2).
            self.tracer.emit(
                tt.LEASE_REQUEST,
                switch=self.switch.name,
                flow=flow_tag_of(self.switch.sim, key),
            )
            self._mirror_request(msg, ("lease_new", idx), req)
        ctx.consume()

    def _bounded_path(self, ctx: PipelineContext, key: FlowKey) -> bool:
        """Bounded-inconsistency fast path: run the app, forward, done."""
        idx = self._flow_index(key)
        vals = [reg.cp_read(idx) for reg in self.state_regs]
        view = FlowStateView(self.app.state_spec, vals)
        verdict = self.app.process(view, ctx.pkt, ctx, self.switch)
        if view.write_occurred:
            for reg, new_val in zip(self.state_regs, view.vals()):
                reg.access(ctx, idx, lambda _old, v=new_val: (v, v))
        if verdict is AppVerdict.DROP:
            ctx.drop()
            return False
        self._c["fast_path_forwards"].value += 1
        return True

    def _leased_path(
        self, ctx: PipelineContext, key: FlowKey, idx: int, now: float
    ) -> bool:
        """Lease held: run the application, then replicate if it wrote."""
        pkt = ctx.pkt
        vals = [reg.cp_read(idx) for reg in self.state_regs]
        view = FlowStateView(self.app.state_spec, vals)
        verdict = self.app.process(view, pkt, ctx, self.switch)

        if view.write_occurred:
            # Commit new values to the state registers: one atomic RMW per
            # array for this packet (the cp_read above models the read
            # phase of the same stateful-ALU operation).
            new_vals = view.vals()
            for reg, new_val in zip(self.state_regs, new_vals):
                reg.access(ctx, idx, lambda _old, v=new_val: (v, v))
            seq = self.reg_cur_seq.access(ctx, idx, lambda old: (old + 1, old + 1))
            # Every output derived from this packet — the forwarded packet
            # and anything the app emitted (Definition 1 allows multiple
            # outputs) — is withheld inside the replication request until
            # the update is durable.
            outputs = []
            if verdict is AppVerdict.FORWARD:
                outputs.append(pkt.to_bytes())
            outputs.extend(out.to_bytes() for out in ctx.emitted)
            ctx.emitted.clear()
            msg = _new(RedPlaneMessage)
            msg.seq = seq
            msg.msg_type = MessageType.REPL_WRITE_REQ
            msg.flow_key = key
            msg.vals = view.vals()
            msg.piggyback = pack_packets(outputs) if outputs else None
            msg.aux = 0
            req = self._send_request(ctx, msg, parent_uid=pkt.meta.get("uid"))
            self._mirror_request(msg, ("write", idx), req)
            self._c["writes_replicated"].value += 1
            ctx.consume()
            return False

        if verdict is AppVerdict.DROP:
            ctx.drop()
            return False

        # Read-only packet. If an update is still in flight, its effects
        # are not durable yet: buffer this packet through the network until
        # the latest replication request is acknowledged (§5.1).
        cur_seq = self.reg_cur_seq.read(ctx, idx)
        last_acked = self.reg_last_acked.read(ctx, idx)
        if last_acked < cur_seq:
            msg = RedPlaneMessage(
                seq=cur_seq,
                msg_type=MessageType.READ_BUFFER_REQ,
                flow_key=key,
                piggyback=pack_packets([pkt.to_bytes()]),
            )
            self._send_request(ctx, msg, parent_uid=pkt.meta.get("uid"))
            self._c["reads_buffered"].value += 1
            ctx.consume()
            return False

        self._maybe_renew_lease(ctx, key, idx, now)
        self._c["fast_path_forwards"].value += 1
        return True  # line-rate fast path: normal L3 forwarding

    def _maybe_renew_lease(
        self, ctx: PipelineContext, key: FlowKey, idx: int, now: float
    ) -> None:
        """Explicit renewal for read-centric flows, every 0.5 s (§5.3)."""
        interval = self.config.renew_interval_us

        def rmw(last: int) -> Tuple[int, int]:
            if now - last >= interval:
                return int(now), 1
            return last, 0

        due = self.reg_last_renew.access(ctx, idx, rmw)
        if due:
            msg = RedPlaneMessage(
                seq=0, msg_type=MessageType.LEASE_RENEW_REQ, flow_key=key
            )
            req = self._send_request(ctx, msg,
                                     parent_uid=ctx.pkt.meta.get("uid"))
            # Like LEASE_NEW_REQ, only a flow's first outstanding renewal
            # is mirrored; its ack settles the later ones too.
            if ("renew", idx) not in self._inflight:
                self._mirror_request(msg, ("renew", idx), req)
            self._c["lease_renewals"].value += 1
            self.tracer.emit(
                tt.LEASE_RENEW,
                switch=self.switch.name,
                flow=flow_tag_of(self.switch.sim, key),
            )

    # ------------------------------------------------------------------
    # responses from the state store
    # ------------------------------------------------------------------

    def _handle_response(self, ctx: PipelineContext) -> None:
        msg = parse_protocol_packet(ctx.pkt)
        self._c["acks_received"].value += 1

        if msg.msg_type is MessageType.SNAPSHOT_REPL_ACK:
            self._release(("snapshot", (msg.flow_key, msg.aux)), msg.seq)
            if self.snapshot_ack_handler is not None:
                self.snapshot_ack_handler(msg)
            return

        idx = self._flow_idx.get(msg.flow_key)
        if idx is None:
            self._c["stale_acks_ignored"].value += 1
            return
        now = self.switch.sim.now

        if msg.msg_type is MessageType.LEASE_NEW_ACK:
            self._handle_lease_new_ack(ctx, msg, idx, now)
        elif msg.msg_type is MessageType.REPL_WRITE_ACK:
            self._handle_write_ack(ctx, msg, idx, now)
        elif msg.msg_type is MessageType.LEASE_RENEW_ACK:
            self._release(("renew", idx))
            self._extend_lease(ctx, msg.flow_key, idx, now)
        elif msg.msg_type is MessageType.READ_BUFFER_ACK:
            self._handle_read_buffer_ack(ctx, msg, idx)
        else:
            self._c["stale_acks_ignored"].value += 1

    def _emit_ack(
        self,
        ctx: PipelineContext,
        kind: str,
        flow: FlowKey,
        seq: int,
        rtx: RetransmitState,
    ) -> None:
        """Trace one released request copy with its measured RTT.

        ``uid`` is the span of the acknowledgment packet itself; ``cause``
        is the request copy whose arrival at the store produced it (the
        *winning* copy, threaded through the store via packet meta);
        ``req_uid`` is the copy the engine's RTT window was measured from
        (the latest resend — equal to ``cause`` unless an earlier copy's
        ack won the race).
        """
        rtt_us = self.switch.sim.now - rtx.sent_at
        self._h_ack_rtt.observe(rtt_us)
        meta = ctx.pkt.meta
        fields: Dict[str, object] = {
            "switch": self.switch.name,
            "kind": kind,
            "flow": flow_tag_of(self.switch.sim, flow),
            "seq": seq,
            "uid": meta.get("uid", 0),
            "req_uid": rtx.uid,
            "rtt_us": rtt_us,
        }
        cause = meta.get("parent_uid")
        if cause is not None:
            fields["cause"] = cause
        self._h_resends.observe(float(rtx.resends))
        self.tracer.emit(tt.RP_ACK, **fields)

    def _handle_lease_new_ack(
        self, ctx: PipelineContext, msg: RedPlaneMessage, idx: int, now: float
    ) -> None:
        for _seq, rtx in self._release(("lease_new", idx), msg.seq):
            self._emit_ack(ctx, "lease_new", msg.flow_key, msg.seq, rtx)
        was_pending = self.reg_lease_pending.access(ctx, idx, lambda old: (0, old))
        if was_pending:
            self.tracer.emit(
                tt.LEASE_GRANT,
                switch=self.switch.name,
                flow=flow_tag_of(self.switch.sim, msg.flow_key),
                seq=msg.seq,
                migrated=bool(msg.vals),
            )
            # Install the returned state (migration) or initialize fresh
            # state; never clobber state we already own. The grant's
            # snapshot was taken at the store before any of our still
            # in-flight updates applied, so when the granted seq is behind
            # our local seq the local registers are strictly newer — the
            # store converges to them as the in-flight writes land, while
            # installing the snapshot would regress both the state and the
            # sequence counter (later writes would then be discarded by
            # the store's Fig 6b guard).
            local_seq = self.reg_cur_seq.cp_read(idx)
            if msg.seq >= local_seq or mutation_active("skip_lease_install_guard"):
                if msg.vals:
                    for reg, val in zip(self.state_regs, msg.vals):
                        reg.cp_write(idx, val)
                else:
                    init = self.app.initial_state(msg.flow_key)
                    vals = init if init is not None else self.app.state_spec.default_vals()
                    for reg, val in zip(self.state_regs, vals):
                        reg.cp_write(idx, val)
                self.reg_cur_seq.cp_write(idx, msg.seq)
                self.reg_last_acked.cp_write(idx, msg.seq)
            self._extend_lease(ctx, msg.flow_key, idx, now)
            if (
                self.app.requires_control_plane_install
                and idx not in self._state_installed
            ):
                # Match-table state (e.g. NAT translation entries) must be
                # installed through the switch control plane; the held
                # packet is released only once the install completes.
                self.switch.control_plane.submit(
                    self._finish_install, idx, msg.piggyback,
                    ctx.pkt.meta.get("uid")
                )
                return
            self._state_installed.add(idx)
        else:
            self._extend_lease(ctx, msg.flow_key, idx, now)
        self._reinject_piggyback(msg.piggyback, ctx.pkt.meta.get("uid"))

    def _finish_install(self, idx: int, piggyback: Optional[bytes],
                        parent_uid: Optional[int] = None) -> None:
        self._state_installed.add(idx)
        self._reinject_piggyback(piggyback, parent_uid)

    def _handle_write_ack(
        self, ctx: PipelineContext, msg: RedPlaneMessage, idx: int, now: float
    ) -> None:
        self.reg_last_acked.access(
            ctx, idx, lambda old: (max(old, msg.seq), max(old, msg.seq))
        )
        # The ack covers every copy with seq <= acked.
        for seq, rtx in self._release(("write", idx), msg.seq):
            self._emit_ack(ctx, "write", msg.flow_key, seq, rtx)
        self._extend_lease(ctx, msg.flow_key, idx, now)
        if msg.piggyback is not None:
            resp_uid = ctx.pkt.meta.get("uid")
            for raw in unpack_packets(msg.piggyback):
                out = Packet.from_bytes(raw)
                if resp_uid is not None:
                    out.meta["parent_uid"] = resp_uid
                self._c["piggybacks_released"].value += 1
                ctx.emit(out)

    def _handle_read_buffer_ack(
        self, ctx: PipelineContext, msg: RedPlaneMessage, idx: int
    ) -> None:
        if msg.piggyback is None:
            return
        resp_uid = ctx.pkt.meta.get("uid")
        last_acked = self.reg_last_acked.read(ctx, idx)
        if last_acked >= msg.seq:
            for raw in unpack_packets(msg.piggyback):
                out = Packet.from_bytes(raw)
                if resp_uid is not None:
                    out.meta["parent_uid"] = resp_uid
                self._c["piggybacks_released"].value += 1
                ctx.emit(out)
        else:
            # The gating update is still unacknowledged: bounce the packet
            # through the network again.
            again = RedPlaneMessage(
                seq=msg.seq,
                msg_type=MessageType.READ_BUFFER_REQ,
                flow_key=msg.flow_key,
                piggyback=msg.piggyback,
            )
            self._send_request(ctx, again, parent_uid=resp_uid)
            self._c["reads_buffered"].value += 1

    def _wrap_hold(self, raw: bytes) -> bytes:
        """Prefix held packet bytes with a fresh hold nonce (see
        ``_reinjected``); the store echoes the piggyback opaquely."""
        nonce = self.switch.sim.new_uid()
        return _HOLD_TAG + nonce.to_bytes(8, "big") + raw

    def _reinject_piggyback(self, piggyback: Optional[bytes],
                            parent_uid: Optional[int] = None) -> None:
        if piggyback is None:
            return
        for raw in unpack_packets(piggyback):
            if raw.startswith(_HOLD_TAG) and len(raw) > _HOLD_HEADER_LEN:
                nonce = raw[len(_HOLD_TAG):_HOLD_HEADER_LEN]
                raw = raw[_HOLD_HEADER_LEN:]
                # ``skip_hold_dedup`` re-introduces the double-processing
                # bug this dedup fixed, for mutation-testing the fuzzer.
                if not mutation_active("skip_hold_dedup"):
                    if nonce in self._reinjected:
                        self._c["piggyback_dups_dropped"].value += 1
                        continue
                    self._reinjected.add(nonce)
            pkt = Packet.from_bytes(raw)
            pkt.meta["rp_reinjected"] = True
            if parent_uid is not None:
                pkt.meta["parent_uid"] = parent_uid
            self.switch.inject(pkt)

    # ------------------------------------------------------------------
    # request transmission and retransmission
    # ------------------------------------------------------------------

    def _send_request(
        self,
        ctx: Optional[PipelineContext],
        msg: RedPlaneMessage,
        parent_uid: Optional[int] = None,
    ) -> Packet:
        """Build, span-tag, trace, and emit one request packet.

        Returns the packet; ``pkt.meta["uid"]`` is its span uid.
        ``parent_uid`` records causality (the app packet that triggered the
        request, the timed-out copy a resend supersedes, the ack that
        bounced a read-buffer request).
        """
        shard = self.shard_map.shard_for(msg.flow_key)
        pkt = make_protocol_packet(self.switch.ip, shard.ip, msg, dport=shard.udp_port)
        uid = self.switch.sim.new_uid()
        pkt.meta["uid"] = uid
        fields: Dict[str, object] = {
            "switch": self.switch.name,
            "kind": _KIND_NAME[msg.msg_type],
            "flow": flow_tag_of(self.switch.sim, msg.flow_key),
            "seq": msg.seq,
            "uid": uid,
        }
        if parent_uid is not None:
            pkt.meta["parent_uid"] = parent_uid
            fields["parent"] = parent_uid
        self.tracer.emit(tt.RP_REQUEST, **fields)
        if ctx is not None:
            ctx.emit(pkt)
        else:
            self.switch.emit_from_pipeline(pkt)
        return pkt

    def send_snapshot_request(self, msg: RedPlaneMessage) -> None:
        """Used by the snapshot replicator (§5.4) to ship one slot value."""
        req = self._send_request(None, msg)
        self.tracer.emit(
            tt.SNAPSHOT,
            switch=self.switch.name,
            slot=msg.aux,
            epoch=msg.seq,
        )
        key = ("snapshot", (msg.flow_key, msg.aux))
        self._release(key)  # a newer epoch settles the slot's older copy
        self._mirror_request(msg, key, req)

    def _mirror_request(
        self, msg: RedPlaneMessage, key: Tuple[str, object], req: Packet
    ) -> None:
        """Mirror a truncated copy of request packet ``req`` (carrying
        ``msg``) for retransmission (§5.2) and enter it in the ledger under
        ``key`` at the request's seq. The copy's first pass is at the
        retransmission deadline: no pass before it could act."""
        header_only = _new(RedPlaneMessage)
        header_only.seq = msg.seq
        header_only.msg_type = msg.msg_type
        header_only.flow_key = msg.flow_key
        header_only.vals = list(msg.vals)
        header_only.piggyback = None
        header_only.aux = msg.aux
        rtx = RetransmitState(
            kind=key[0],
            msg=header_only,
            sent_at=self.switch.sim.now,
            timeout_us=self.config.retransmit_timeout_us,
            uid=req.meta["uid"],  # type: ignore[arg-type]
        )
        copies = self._inflight.setdefault(key, {})
        # Only a regressed sequence counter (the skip_lease_install_guard
        # mutation) reuses a live seq; never orphan the copy it replaces.
        replaced = copies.get(msg.seq)
        if replaced is not None:
            self.mirror.release(replaced)
        copies[msg.seq] = self.mirror.mirror(
            req, rtx, rtx.sent_at + rtx.timeout_us
        )

    def _release(
        self, key: Tuple[str, object], upto_seq: float = math.inf
    ) -> List[Tuple[int, RetransmitState]]:
        """Settle request ``key``: release its copies with seq <= ``upto_seq``.

        The retransmitter's one release rule. Its callers are the events
        that settle a request: a write ack (seq <= ack), the lease-new
        ack, the renew ack, a snapshot ack (epoch <= ack), a newer epoch
        for the same slot, ``SnapshotReplicator.stop`` and
        :meth:`shutdown`. Returns ``(seq, rtx)`` for each copy it took out
        of the mirror. A copy that died with its switch (the mirror
        already dropped it) just leaves the ledger: no ack reached it.
        """
        copies = self._inflight.get(key)
        if copies is None:
            return []
        settled = []
        for seq in [s for s in copies if s <= upto_seq]:
            copy = copies.pop(seq)
            if not copy.released:
                self.mirror.release(copy)
                settled.append((seq, copy.state))
        if not copies:
            del self._inflight[key]
        return settled

    def _mirror_pass(self, rtx: RetransmitState) -> float:
        """One egress pass of a circulating copy: resend it if its deadline
        passed, and return the time of its next pass, the deadline.
        Releasing is not this handler's job (see :meth:`_release`)."""
        now = self.switch.sim.now
        if now >= rtx.sent_at + rtx.timeout_us:
            resend = self._send_request(None, rtx.msg, parent_uid=rtx.uid)
            new_uid: int = resend.meta["uid"]  # type: ignore[assignment]
            self._c["retransmissions"].value += 1
            self.tracer.emit(
                tt.RETRANSMIT,
                switch=self.switch.name,
                kind=rtx.kind,
                flow=flow_tag_of(self.switch.sim, rtx.msg.flow_key),
                seq=rtx.msg.seq,
                timeout_us=rtx.timeout_us,
                uid=new_uid,
                parent=rtx.uid,
            )
            # Resends chain: each supersedes the previous copy, and the
            # engine's RTT window restarts from the latest one (sent_at).
            rtx.uid = new_uid
            rtx.sent_at = now
            rtx.resends += 1
            rtx.timeout_us = min(
                rtx.timeout_us * constants.RETRANSMIT_BACKOFF,
                constants.RETRANSMIT_TIMEOUT_MAX_US,
            )
        return rtx.sent_at + rtx.timeout_us

    # ------------------------------------------------------------------
    # misc helpers
    # ------------------------------------------------------------------

    def _extend_lease(self, ctx: PipelineContext, key: FlowKey, idx: int,
                      now: float) -> None:
        # The safety margin must leave a usable lease window: clamp it to
        # half the period (a margin >= the period would make the switch
        # disbelieve every lease it is granted and loop on re-acquisition).
        margin = min(constants.LEASE_MARGIN_US,
                     self.config.lease_period_us / 2.0)
        expiry = int(now + self._lease_period_us - margin)
        self.reg_lease_expiry.access(
            ctx, idx, lambda old: (max(old, expiry), max(old, expiry))
        )
        if self.monitor is not None:
            self.monitor.lease_installed(self, key, idx, ctx.pkt.ip.src)

    def _flow_index(self, key: FlowKey) -> int:
        idx = self._flow_idx.get(key)
        if idx is None:
            if self._free_indices:
                idx = self._free_indices.pop()
            elif self._next_idx < self.config.max_flows:
                idx = self._next_idx
                self._next_idx += 1
            else:
                raise RuntimeError(
                    f"{self.switch.name}: flow table full "
                    f"({self.config.max_flows} flows)"
                )
            self._flow_idx[key] = idx
            self._g_flow_table.set(len(self._flow_idx))
        return idx

    def reclaim_idle_flows(self) -> int:
        """Free flow-table entries whose lease lapsed long ago.

        The per-flow SRAM is a fixed-size resource (Table 2 sizes it at
        ``max_flows``); a production deployment reclaims entries for dead
        flows from the control plane. An entry is reclaimable once its
        lease has been expired for one lease period (by then the store
        would re-grant from scratch anyway) and it has no in-flight
        protocol activity. Returns the number reclaimed.
        """
        idle_us = self.config.lease_period_us
        now = self.switch.sim.now
        inflight = self._inflight
        reclaimed = 0
        for key, idx in list(self._flow_idx.items()):
            expiry = self.reg_lease_expiry.cp_read(idx)
            busy = (
                self.reg_lease_pending.cp_read(idx) == 1
                or ("lease_new", idx) in inflight
                or ("renew", idx) in inflight
                or ("write", idx) in inflight
                or self.reg_last_acked.cp_read(idx)
                < self.reg_cur_seq.cp_read(idx)
            )
            if busy or expiry + idle_us > now:
                continue
            # Scrub the entry: registers back to defaults, index recycled.
            self.reg_lease_expiry.cp_write(idx, 0)
            self.reg_cur_seq.cp_write(idx, 0)
            self.reg_last_acked.cp_write(idx, 0)
            self.reg_lease_pending.cp_write(idx, 0)
            self.reg_last_renew.cp_write(idx, 0)
            for reg in self.state_regs:
                reg.cp_write(idx, 0)
            self._state_installed.discard(idx)
            del self._flow_idx[key]
            self._free_indices.append(idx)
            reclaimed += 1
        if reclaimed:
            self._c_reclaimed.inc(reclaimed)
        self._g_flow_table.set(len(self._flow_idx))
        return reclaimed

    def _record(self, key: FlowKey, pkt: Packet) -> None:
        """Append one input event to the history. Callers test
        ``config.record_history`` first, so a run that keeps no history
        enters no frame here."""
        trace_id = pkt.ip.identification if pkt.ip is not None else 0
        self.history.append(
            HistoryEvent(
                key=key,
                trace_id=trace_id,
                time=self.switch.sim.now,
                switch=self.switch.name,
            )
        )

    def shutdown(self) -> None:
        """Release every circulating mirror copy (clean teardown).

        Use when an experiment ends while requests are still outstanding
        (e.g. the store was failed on purpose): otherwise the
        retransmitter keeps the event loop alive indefinitely.
        """
        for key in list(self._inflight):
            self._release(key)

    # -- introspection used by tests and experiments ------------------------

    def flow_state(self, key: FlowKey) -> Optional[List[int]]:
        """Current switch-local state values for a flow (None if unknown)."""
        idx = self._flow_idx.get(key)
        if idx is None:
            return None
        return [reg.cp_read(idx) for reg in self.state_regs]

    def lease_valid(self, key: FlowKey) -> bool:
        idx = self._flow_idx.get(key)
        if idx is None:
            return False
        return self.reg_lease_expiry.cp_read(idx) > self.switch.sim.now

    def expire_lease_now(self) -> int:
        """Chaos hook: make every switch-side lease view lapse immediately.

        Models a local clock glitch or a renewal that never landed. The
        switch-side expiry is already conservative (margin below the
        store's grant, §5.3), so forcing it early can only cause extra
        lease re-acquisition traffic — the lease-race paths — never a
        safety violation; the store still arbitrates ownership. Returns
        the number of flow entries whose lease was expired.
        """
        now = self.switch.sim.now
        expired = 0
        for idx in self._flow_idx.values():
            if self.reg_lease_expiry.cp_read(idx) > now:
                self.reg_lease_expiry.cp_write(idx, int(now))
                expired += 1
        return expired

    def resource_usage(self) -> Dict[str, float]:
        """RedPlane's *additional* ASIC resources (Table 2 inventory).

        Per-flow SRAM: 96 register bits plus a 128-bit flow-index table
        entry, the prototype's figure as transcribed from Table 2 (lease
        expiry, current seq, last acked, packed). This engine instantiates
        five arrays instead — 64 + 32 + 32 + 1 + 64 = 193 bits per flow,
        plus 32 per app state field; ROADMAP item 19(c) reconciles the
        two. TCAM: two 4096-entry range-match tables (ack processing and
        request-timeout checks). The fixed-function counts (ALUs, gateways,
        VLIW slots, crossbar and hash bits) come from the block inventory.
        """
        flows = self.config.max_flows
        usage = {
            "sram_bits": flows * (96 + 128) + 1024 * 152,
            "tcam_bits": 2 * 4096 * 96,
            "meter_alus": 4,
            "gateways": 19,
            "vliw_instructions": 21,
            "match_crossbar_bits": 976,
            "hash_bits": 185,
        }
        # Table 2 reads these from the registry: one gauge per resource,
        # labeled by switch, so resource numbers have a single source.
        metrics = self.switch.sim.metrics
        for resource, amount in usage.items():
            metrics.gauge(
                f"redplane.resource.{resource}", switch=self.switch.name
            ).set(amount)
        return usage
