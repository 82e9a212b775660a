"""The external state store: in-memory KV servers with chain replication.

Each :class:`StateStoreNode` is a commodity server holding per-flow records
(state values, last applied sequence number, lease ownership). Requests
arrive at the chain head, which runs the protocol decision logic of §5.1-5.3:

* **lease management** — grant a lease only if no other switch holds an
  active one; otherwise buffer the request until the current lease expires
  (Fig 7b), which is also how state migrates between switches;
* **sequencing** — apply a state update only if its per-flow sequence
  number is newer than the last applied one (Fig 6b);
* **piggyback echo** — return the piggybacked output packet in the
  acknowledgment so the switch can release it (§5.1, delay-line memory).

Mutating requests are propagated down the chain (van Renesse & Schneider
chain replication, group size 3 in the prototype); the tail emits the
acknowledgment. Non-mutating read-buffer requests bounce off the head.

Recovery from a lost chain update is the switch's: an update stranded
inside a node that dies mid-propagation is healed when the switch
retransmits the request (§5.2). The head answers the duplicate by pushing
its current record down the repaired chain, so :func:`reconfigure_chain`
only rewires. Each replica's history is therefore a prefix of its
predecessor's, not necessarily equal to it once the chain is quiet.

This module is the store's *transport* layer only. Where the records
live is a pluggable decision: every mutation is committed through a
:class:`~repro.statestore.backend.StateStoreBackend` before the reply
or chain propagation leaves the node (write-ahead semantics), so a
durable backend guarantees any acknowledged state survives a
:meth:`StateStoreNode.crash` + :meth:`StateStoreNode.restart` cycle.
The wire formats live in :mod:`repro.statestore.codec`; a chain packet
carries its encoded bytes and, beside them, the fields they encode, which
the receiving node uses instead of parsing the bytes back.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.mutation import mutation_active
from repro.net import constants
from repro.net.hosts import Host
from repro.net.packet import FlowKey, Packet
from repro.net.simulator import Simulator
from repro.core.protocol import (
    MessageType,
    RedPlaneMessage,
    STORE_UDP_PORT,
    SWITCH_UDP_PORT,
    make_protocol_packet,
    parse_protocol_packet,
)
from repro.statestore.backend import (
    FlowRecord,
    InMemoryBackend,
    StateStoreBackend,
)
from repro.statestore.codec import (
    CHAIN_UPDATE,
    pack_chain_update,
    unpack_chain_packet,
)
from repro.telemetry import trace as tt

#: An instance with no ``__init__`` run: the write ack is built field by
#: field, so a write enters no generated constructor.
_new = object.__new__

#: UDP port used for chain-replication propagation between store nodes.
CHAIN_UDP_PORT = 4802

#: ACK aux values: did the flow's state already exist at the store?
AUX_FRESH_FLOW = 0
AUX_MIGRATED_STATE = 1

#: Computes initial state values for a brand-new flow. Models global state
#: (e.g. a NAT's port pool) being sharded across and managed by the store
#: servers (§3, "Scope"): the allocation happens here, not on the switch.
StateAllocator = Callable[[FlowKey], List[int]]


class StateStoreNode(Host):
    """One state-store server process (head, middle, or tail of a chain)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: int,
        lease_period_us: float = constants.LEASE_PERIOD_US,
        backend: Optional[StateStoreBackend] = None,
    ) -> None:
        super().__init__(sim, name, ip)
        self.lease_period_us = lease_period_us
        #: Per-request processing delay (us); ``degrade_store`` raises it.
        self.proc_delay_us = constants.STORE_PROC_US
        #: Per-request service time (us). Zero models latency only; set to
        #: ``1 / capacity`` to model a finite-capacity server whose queue
        #: becomes the bottleneck for write-heavy workloads (Figs 12/13).
        self.service_time_us = 0.0
        self._busy_until = 0.0
        #: Picks a fresh flow's initial values at the store (global state
        #: such as a DIP pool, §3); an app's ``provision`` sets it.
        self.allocator: Optional[StateAllocator] = None
        #: Storage backend holding the per-flow records. Defaults to the
        #: in-memory reference backend (bit-identical to the historical
        #: embedded dict).
        self.backend = backend if backend is not None else InMemoryBackend()
        self.backend.bind(self)
        #: Next node in the chain (None for the tail / unreplicated store).
        self.successor_ip: Optional[int] = None
        #: The run's ``InvariantMonitor``, told of every record written here.
        self.monitor = None
        self.bind(STORE_UDP_PORT, self._on_request_packet)
        self.bind(CHAIN_UDP_PORT, self._on_chain_packet)
        # Per-node protocol statistics, published through the run's metric
        # registry (labeled by store node); the historical integer
        # attributes below are read-only properties over these counters.
        m = sim.metrics
        self._c_requests = m.counter("store.requests_processed", node=name)
        self._c_applied = m.counter("store.updates_applied", node=name)
        self._c_stale = m.counter("store.updates_rejected_stale", node=name)
        self._c_leases = m.counter("store.leases_granted", node=name)
        self._c_buffered = m.counter("store.requests_buffered", node=name)
        self._c_recoveries = m.counter("store.backend.recoveries", node=name)

    @property
    def requests_processed(self) -> int:
        return int(self._c_requests.value)

    @property
    def updates_applied(self) -> int:
        return int(self._c_applied.value)

    @property
    def updates_rejected_stale(self) -> int:
        return int(self._c_stale.value)

    @property
    def leases_granted(self) -> int:
        return int(self._c_leases.value)

    @property
    def requests_buffered(self) -> int:
        return int(self._c_buffered.value)

    # -- helpers ------------------------------------------------------------

    @property
    def records(self) -> Dict[FlowKey, FlowRecord]:
        """The backend's live record mapping (insertion-ordered)."""
        return self.backend.records

    def record(self, key: FlowKey) -> FlowRecord:
        return self.backend.record(key)

    # -- crash / recovery ---------------------------------------------------

    def crash(self) -> None:
        """Hard crash: the process dies and its volatile memory is lost.

        Unlike a plain :meth:`fail` (unreachable but DRAM intact), a crash
        wipes the backend's volatile state. Whatever the backend persisted
        to a durable medium stays there for :meth:`restart` to replay.
        """
        self.fail()
        self.backend.wipe()
        self._busy_until = 0.0

    def restart(self) -> int:
        """Restart after a crash, rebuilding records from the backend.

        Returns the number of records recovered. Emits a ``store.recover``
        trace event.
        """
        recovered = self.backend.recover()
        self.recover()
        self._c_recoveries.inc()
        if self.monitor is not None:
            for key, rec in self.records.items():
                self.monitor._sample(self, key, rec)
        self.sim.tracer.emit(
            tt.STORE_RECOVER,
            node=self.name,
            records=recovered,
            backend=self.backend.name,
        )
        return recovered

    def _reply(self, msg: RedPlaneMessage, to_ip: int,
               origin_uid: int = 0) -> None:
        # Processing time was already paid on the receive path.
        pkt = make_protocol_packet(
            self.ip, to_ip, msg, sport=STORE_UDP_PORT, dport=SWITCH_UDP_PORT
        )
        if origin_uid:
            # The reply's span descends from the request copy that won the
            # race to the store; the switch reads this as the ack's cause.
            pkt.meta["parent_uid"] = origin_uid
        self.send(pkt)

    # -- request path (chain head) -------------------------------------------

    def _on_request_packet(self, pkt: Packet) -> None:
        msg = parse_protocol_packet(pkt)
        requester_ip = pkt.ip.src
        origin_uid = int(pkt.meta.get("uid", 0))
        delay = self.proc_delay_us
        if self.service_time_us > 0.0:
            # Finite-capacity server: requests serialize through it.
            start = max(self.sim.now, self._busy_until)
            self._busy_until = start + self.service_time_us
            delay = (self._busy_until - self.sim.now)
        self.sim.schedule(delay, self._process_request, msg, requester_ip,
                          origin_uid)

    def _process_request(self, msg: RedPlaneMessage, requester_ip: int,
                         origin_uid: int = 0) -> None:
        if self.failed:
            return
        self._c_requests.value += 1
        now = self.sim.now
        rec = self.record(msg.flow_key)

        if msg.msg_type is MessageType.READ_BUFFER_REQ:
            # Non-mutating: bounce the piggybacked packet straight back with
            # the last sequence number this store has applied.
            reply = RedPlaneMessage(
                seq=rec.last_seq,
                msg_type=MessageType.READ_BUFFER_ACK,
                flow_key=msg.flow_key,
                piggyback=msg.piggyback,
            )
            self._reply(reply, requester_ip, origin_uid)
            return

        # Asynchronous snapshots are filtered by epoch sequencing only; they
        # never block on leases (bounded-inconsistency mode, §5.4).
        if (msg.msg_type is not MessageType.SNAPSHOT_REPL_REQ
                and rec.held_by_other(requester_ip, now)):
            # Another switch owns this flow: buffer until the lease expires
            # (this is both correctness under concurrent access, Fig 7b, and
            # the state-migration wait during failover). Header-only
            # retransmissions of an already-buffered request are deduped;
            # piggybacked requests are distinct held packets and all kept.
            if msg.piggyback is None and any(
                p_msg.msg_type is msg.msg_type and p_ip == requester_ip
                for p_msg, p_ip, _p_uid in rec.pending
            ):
                return
            rec.pending.append((msg, requester_ip, origin_uid))
            self._c_buffered.value += 1
            self.sim.schedule_at(
                rec.lease_expiry + 1e-6, self._drain_pending, msg.flow_key
            )
            return

        reply = self._apply(rec, msg, requester_ip, now)
        self._commit_and_propagate(msg.flow_key, rec, reply, requester_ip,
                                   origin_uid=origin_uid)

    def _apply(
        self,
        rec: FlowRecord,
        msg: RedPlaneMessage,
        requester_ip: int,
        now: float,
    ) -> RedPlaneMessage:
        """Run the protocol state machine for one request at the head."""
        if msg.msg_type is MessageType.LEASE_NEW_REQ:
            migrated = rec.initialized
            if not rec.initialized:
                rec.vals = (
                    list(self.allocator(msg.flow_key)) if self.allocator else []
                )
                rec.initialized = True
            self._grant(rec, requester_ip, now)
            return RedPlaneMessage(
                seq=rec.last_seq,
                msg_type=MessageType.LEASE_NEW_ACK,
                flow_key=msg.flow_key,
                vals=list(rec.vals),
                piggyback=msg.piggyback,
                aux=AUX_MIGRATED_STATE if migrated else AUX_FRESH_FLOW,
            )

        if msg.msg_type is MessageType.REPL_WRITE_REQ:
            self._grant(rec, requester_ip, now)
            # ``skip_store_dedup`` is a seeded bug for mutation-testing the
            # chaos fuzzer (repro.mutation): with it on, the Fig 6b stale
            # guard is bypassed and a late duplicate regresses the record.
            if msg.seq > rec.last_seq or mutation_active("skip_store_dedup"):
                rec.vals = list(msg.vals)
                rec.initialized = True
                rec.last_seq = msg.seq
                self._c_applied.value += 1
            else:
                # Out-of-order or duplicate: never let an older value
                # overwrite a newer one (Fig 6b).
                self._c_stale.value += 1
            ack = _new(RedPlaneMessage)
            ack.seq = rec.last_seq
            ack.msg_type = MessageType.REPL_WRITE_ACK
            ack.flow_key = msg.flow_key
            ack.vals = []
            ack.piggyback = msg.piggyback
            ack.aux = 0
            return ack

        if msg.msg_type is MessageType.LEASE_RENEW_REQ:
            self._grant(rec, requester_ip, now)
            return RedPlaneMessage(
                seq=rec.last_seq,
                msg_type=MessageType.LEASE_RENEW_ACK,
                flow_key=msg.flow_key,
            )

        if msg.msg_type is MessageType.SNAPSHOT_REPL_REQ:
            slot = msg.aux
            if msg.seq >= rec.snapshot_seqs.get(slot, -1):
                rec.snapshot_vals[slot] = msg.vals[0] if msg.vals else 0
                rec.snapshot_seqs[slot] = msg.seq
                rec.initialized = True
                self._c_applied.value += 1
            # Carry the applied slot value so chain replicas converge even
            # when an older epoch was rejected at the head.
            return RedPlaneMessage(
                seq=rec.snapshot_seqs.get(slot, msg.seq),
                msg_type=MessageType.SNAPSHOT_REPL_ACK,
                flow_key=msg.flow_key,
                vals=[rec.snapshot_vals.get(slot, 0)],
                aux=slot,
            )

        raise ValueError(f"unexpected request type {msg.msg_type!r}")

    def _grant(self, rec: FlowRecord, requester_ip: int, now: float) -> None:
        if rec.owner_ip != requester_ip:
            self._c_leases.value += 1
        rec.owner_ip = requester_ip
        rec.lease_expiry = now + self.lease_period_us

    def _drain_pending(self, key: FlowKey) -> None:
        """Process buffered requests once the blocking lease has expired."""
        if self.failed:
            return
        rec = self.records.get(key)
        if rec is None or not rec.pending:
            return
        now = self.sim.now
        if rec.lease_active(now):
            head_msg, head_ip, _head_uid = rec.pending[0]
            if rec.owner_ip != head_ip:
                # Still owned by someone else; wait for the new expiry.
                self.sim.schedule_at(
                    rec.lease_expiry + 1e-6, self._drain_pending, key
                )
                return
        while rec.pending:
            msg, requester_ip, origin_uid = rec.pending.pop(0)
            if rec.held_by_other(requester_ip, now):
                rec.pending.insert(0, (msg, requester_ip, origin_uid))
                self.sim.schedule_at(
                    rec.lease_expiry + 1e-6, self._drain_pending, key
                )
                return
            reply = self._apply(rec, msg, requester_ip, now)
            self._commit_and_propagate(key, rec, reply, requester_ip,
                                       origin_uid=origin_uid)

    # -- chain replication ------------------------------------------------------

    def _commit_and_propagate(
        self,
        key: FlowKey,
        rec: FlowRecord,
        reply: RedPlaneMessage,
        requester_ip: int,
        origin_uid: int = 0,
    ) -> None:
        """Every record write ends here. Write-ahead: the record is durable
        before the reply (or the chain update that will eventually
        produce it) leaves this node."""
        self.backend.commit(key, rec)
        if self.monitor is not None:
            self.monitor._sample(self, key, rec)
        if self.successor_ip is None:
            self._reply(reply, requester_ip, origin_uid)
            return
        payload = bytes([CHAIN_UPDATE]) + pack_chain_update(
            key, rec, reply, requester_ip
        )
        pkt = Packet.udp(
            self.ip, self.successor_ip, CHAIN_UDP_PORT, CHAIN_UDP_PORT, payload
        )
        state = (list(rec.vals), rec.initialized, rec.last_seq,
                 rec.owner_ip or None, rec.lease_expiry)
        pkt.attach_decoded((CHAIN_UPDATE, (key, state, reply, requester_ip)))
        pkt.meta["rp_kind"] = "chain"
        if origin_uid:
            # Chain updates (and, at the tail, the reply) descend from the
            # request copy that reached the head; the meta slot doubles as
            # the origin-uid carrier between chain hops.
            pkt.meta["parent_uid"] = origin_uid
        self.send(pkt)

    def _on_chain_packet(self, pkt: Packet) -> None:
        _kind, (key, state, reply, requester_ip) = pkt.decoded(
            unpack_chain_packet
        )
        origin_uid = int(pkt.meta.get("parent_uid", 0))
        self.sim.schedule(
            self.proc_delay_us, self._apply_chain, key, state, reply,
            requester_ip, origin_uid,
        )

    def _apply_chain(
        self,
        key: FlowKey,
        state: Tuple[List[int], bool, int, Optional[int], float],
        reply: RedPlaneMessage,
        requester_ip: int,
        origin_uid: int = 0,
    ) -> None:
        if self.failed:
            return
        rec = self.record(key)
        # Chain updates cross the (reorderable) fabric: apply only if the
        # carried version is not older than what this replica holds — a
        # late-arriving older update must never regress the record. The
        # version is (last_seq, lease_expiry): sequence numbers order
        # writes, lease expiry orders grants/renewals at equal sequence.
        vals, initialized, last_seq, owner_ip, lease_expiry = state
        if (last_seq, lease_expiry) >= (rec.last_seq, rec.lease_expiry):
            rec.vals = list(vals)
            rec.initialized = rec.initialized or initialized
            rec.last_seq = last_seq
            rec.owner_ip = owner_ip
            rec.lease_expiry = lease_expiry
        if reply.msg_type is MessageType.SNAPSHOT_REPL_ACK and reply.vals:
            if reply.seq >= rec.snapshot_seqs.get(reply.aux, -1):
                rec.snapshot_vals[reply.aux] = reply.vals[0]
                rec.snapshot_seqs[reply.aux] = reply.seq
        # The reply (and its piggybacked outputs) must travel regardless:
        # even a stale-looking update acknowledges a real request.
        self._commit_and_propagate(
            key, rec, reply, requester_ip, origin_uid=origin_uid
        )


def build_chain(nodes: List[StateStoreNode]) -> None:
    """Wire a list of store nodes into a replication chain (head first)."""
    if not nodes:
        raise ValueError("empty chain")
    for node, successor in zip(nodes, nodes[1:]):
        node.successor_ip = successor.ip
    nodes[-1].successor_ip = None


def reconfigure_chain(nodes: List[StateStoreNode]) -> List[StateStoreNode]:
    """Drop failed nodes from a chain and rewire the survivors.

    Returns the surviving chain (possibly empty). Chain reconfiguration in
    the prototype is handled by an external coordination service; we model
    the end state. An update the splice strands is not re-sent from here:
    the switch retransmits its request and the head pushes its current
    record down the new chain.
    """
    alive = [node for node in nodes if not node.failed]
    if alive:
        build_chain(alive)
    return alive
