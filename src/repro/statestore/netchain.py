"""NetChain-style in-switch state store backend (Jin et al., NSDI'18).

NetChain keeps the key-value store *inside* the switches: values live in
register arrays and a query is answered at line rate, so the store RTT
is sub-RTT of the server path — the latency end of the tradeoff RedPlane
argues against for fault tolerance (switch SRAM is volatile; a crashed
switch loses every record, where RedPlane's server store loses none).

Two pieces implement the comparison point:

* :class:`NetChainBackend` — a :class:`~repro.statestore.backend.
  StateStoreBackend` whose authoritative value/sequence/lease storage is
  switch register arrays. Behind a ``StateStoreNode`` it behaves like
  the in-memory backend (commits mirror into the registers over the
  control plane) but honestly reports ``recover() == 0``: SRAM does not
  survive a crash.
* :class:`NetChainStoreBlock` — a pipeline control block for a
  :class:`~repro.switch.asic.SwitchASIC` (deployed on a ToR) that serves
  RedPlane protocol requests *from the registers on the data plane*,
  obeying the one-access-per-array-per-packet discipline the verifier
  enforces (RP101/RP150). Lease arbitration is a single atomic RMW over
  a paired register (owner, expiry); a request that loses the
  arbitration is dropped — an in-switch store has no DRAM to buffer it
  in, so the requesting switch's retransmission carries the wait.

Model fidelity notes: real NetChain has no leases (RedPlane's engine
requires them, so the block implements them in registers), and the
bounded-inconsistency snapshot path is served from the control-plane
shadow table rather than registers (snapshots are asynchronous and not
latency-critical).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.protocol import (
    MessageType,
    RedPlaneMessage,
    SWITCH_UDP_PORT,
    make_protocol_packet,
    parse_protocol_packet,
)
from repro.net import constants
from repro.net.packet import FlowKey, UDPHeader
from repro.statestore.backend import FlowRecord, StateStoreBackend
from repro.switch.pipeline import ControlBlock, PipelineContext
from repro.switch.registers import PairedRegisterArray, RegisterArray

#: UDP port an in-switch NetChain store listens on (distinct from the
#: server store's port so the protocol engine can address either).
NETCHAIN_UDP_PORT = 4808

#: Register arrays provisioned per value slot: how many 32-bit state
#: values one flow record can hold in-switch.
NETCHAIN_VALUE_SLOTS = 4


def _keep(old: int):
    """Read-only register access: ``fn(old) -> (old, old)``."""
    return old, old


def _set_one(old: int):
    """Set-to-one access returning the prior value (test-and-set)."""
    return 1, old


class NetChainBackend(StateStoreBackend):
    """Registers-as-storage backend: volatile, sub-RTT, lossy on crash."""

    name = "netchain"
    in_switch = True

    def __init__(self, label: str = "netchain", size: int = 1024) -> None:
        super().__init__()
        self.size = size
        self.reg_vals = [
            RegisterArray(f"{label}.val{i}", size, 32)
            for i in range(NETCHAIN_VALUE_SLOTS)
        ]
        self.reg_nvals = RegisterArray(f"{label}.nvals", size, 8)
        self.reg_seq = RegisterArray(f"{label}.seq", size, 32)
        self.reg_init = RegisterArray(f"{label}.init", size, 1)
        #: (owner_ip, lease_expiry_us) as one atomic pair: lease
        #: arbitration is a single stateful-ALU operation.
        self.reg_lease = PairedRegisterArray(f"{label}.lease", size, 64)
        #: Control-plane shadow of the register contents (the match-table
        #: view): key -> record mirror, plus the key -> index allocation.
        self._records: Dict[FlowKey, FlowRecord] = {}
        self._slots: Dict[FlowKey, int] = {}

    # -- slot allocation (models the key match table) -----------------------

    def slot(self, key: FlowKey) -> int:
        idx = self._slots.get(key)
        if idx is None:
            idx = len(self._slots)
            if idx >= self.size:
                raise RuntimeError(
                    f"netchain store full: {self.size} register slots"
                )
            self._slots[key] = idx
        return idx

    def sram_bits(self) -> int:
        regs = [self.reg_nvals, self.reg_seq, self.reg_init, self.reg_lease]
        return sum(r.sram_bits() for r in self.reg_vals) + sum(
            r.sram_bits() for r in regs
        )

    # -- backend contract ---------------------------------------------------

    @property
    def records(self) -> Dict[FlowKey, FlowRecord]:
        return self._records

    def commit(self, key: FlowKey, rec: FlowRecord) -> None:
        """Install the record into the registers (control-plane write)."""
        if len(rec.vals) > NETCHAIN_VALUE_SLOTS:
            raise ValueError(
                f"record holds {len(rec.vals)} values; netchain provisions "
                f"{NETCHAIN_VALUE_SLOTS} register slots"
            )
        idx = self.slot(key)
        for i, reg in enumerate(self.reg_vals):
            reg.cp_write(idx, rec.vals[i] if i < len(rec.vals) else 0)
        self.reg_nvals.cp_write(idx, len(rec.vals))
        self.reg_seq.cp_write(idx, rec.last_seq)
        self.reg_init.cp_write(idx, 1 if rec.initialized else 0)
        self.reg_lease.cp_write(
            idx, rec.owner_ip or 0, int(rec.lease_expiry)
        )

    def wipe(self) -> None:
        """Switch crash: SRAM and the installed match entries are gone."""
        self._records.clear()
        self._slots.clear()
        for reg in self.reg_vals:
            for idx in range(self.size):
                reg.cp_write(idx, 0)
        for idx in range(self.size):
            self.reg_nvals.cp_write(idx, 0)
            self.reg_seq.cp_write(idx, 0)
            self.reg_init.cp_write(idx, 0)
            self.reg_lease.cp_write(idx, 0, 0)

    def recover(self) -> int:
        return 0  # nothing survives: the fault-tolerance tradeoff

    def describe(self) -> str:
        return f"netchain({len(self._slots)}/{self.size} slots)"


class NetChainStoreBlock(ControlBlock):
    """Serves RedPlane store requests from register arrays at line rate.

    Installed on a :class:`~repro.switch.asic.SwitchASIC` acting as a
    NetChain node: protocol packets addressed to the switch on
    :data:`NETCHAIN_UDP_PORT` are consumed and answered from the
    backend's registers within the pipeline pass; everything else is
    forwarded untouched.
    """

    name = "netchain-store"

    def __init__(
        self,
        switch,
        backend: Optional[NetChainBackend] = None,
        lease_period_us: float = constants.LEASE_PERIOD_US,
    ) -> None:
        self.switch = switch
        self.backend = backend if backend is not None else NetChainBackend(
            label=f"{switch.name}.netchain"
        )
        self.lease_period_us = lease_period_us
        m = switch.sim.metrics
        self._c_requests = m.counter(
            "store.requests_processed", node=switch.name)
        self._c_applied = m.counter("store.updates_applied", node=switch.name)
        self._c_stale = m.counter(
            "store.updates_rejected_stale", node=switch.name)
        self._c_leases = m.counter("store.leases_granted", node=switch.name)
        g = m.gauge("store.backend.netchain_register_bits", node=switch.name)
        g.set(self.backend.sram_bits())

    def resource_usage(self) -> Dict[str, float]:
        return {"sram_bits": float(self.backend.sram_bits())}

    # -- pipeline entry point ------------------------------------------------

    def process(self, ctx: PipelineContext, switch) -> bool:
        pkt = ctx.pkt
        if (
            pkt.ip is None
            or pkt.ip.dst != switch.ip
            or not isinstance(pkt.l4, UDPHeader)
            or pkt.l4.dport != NETCHAIN_UDP_PORT
        ):
            return True
        msg = parse_protocol_packet(pkt)
        self._c_requests.inc()
        self._serve(ctx, switch, msg, pkt.ip.src, int(pkt.meta.get("uid", 0)))
        ctx.consume()
        return False

    def _serve(self, ctx: PipelineContext, switch, msg: RedPlaneMessage,
               requester_ip: int, origin_uid: int) -> None:
        now = switch.sim.now
        key = msg.flow_key
        rec = self.backend.record(key)
        idx = self.backend.slot(key)
        mt = msg.msg_type

        if mt is MessageType.READ_BUFFER_REQ:
            last_seq = self.backend.reg_seq.access(ctx, idx, _keep)
            self._emit_reply(ctx, switch, RedPlaneMessage(
                seq=last_seq,
                msg_type=MessageType.READ_BUFFER_ACK,
                flow_key=key,
                piggyback=msg.piggyback,
            ), requester_ip, origin_uid)
            return

        if mt is MessageType.SNAPSHOT_REPL_REQ:
            # Asynchronous snapshots go through the control-plane shadow
            # table: they are not on the latency-critical register path.
            slot = msg.aux
            if msg.seq >= rec.snapshot_seqs.get(slot, -1):
                rec.snapshot_vals[slot] = msg.vals[0] if msg.vals else 0
                rec.snapshot_seqs[slot] = msg.seq
                rec.initialized = True
                self._c_applied.inc()
            self._emit_reply(ctx, switch, RedPlaneMessage(
                seq=rec.snapshot_seqs.get(slot, msg.seq),
                msg_type=MessageType.SNAPSHOT_REPL_ACK,
                flow_key=key,
                vals=[rec.snapshot_vals.get(slot, 0)],
                aux=slot,
            ), requester_ip, origin_uid)
            return

        # Lease arbitration: one atomic RMW over the (owner, expiry)
        # pair. Grant if the lease is free, expired, or already ours.
        deadline = int(now + self.lease_period_us)
        granted = self.backend.reg_lease.access(
            ctx, idx,
            lambda owner, expiry: (
                (requester_ip, deadline, 1)
                if (owner == 0 or owner == requester_ip or expiry <= now)
                else (owner, expiry, 0)
            ),
        )
        if not granted:
            # Held by another switch. No DRAM to buffer the request in:
            # drop it and let the requester's retransmission retry until
            # the current lease lapses (fail-safe, never state-unsafe).
            return
        if rec.owner_ip != requester_ip:
            self._c_leases.inc()
        rec.owner_ip = requester_ip
        rec.lease_expiry = float(deadline)

        if mt is MessageType.LEASE_NEW_REQ:
            was_init = self.backend.reg_init.access(ctx, idx, _set_one)
            # A first lease starts the record empty: no values, zeroed slots.
            nvals = self.backend.reg_nvals.access(
                ctx, idx, lambda old: (old, old) if was_init else (0, 0),
            )
            vals: List[int] = []
            for reg in self.backend.reg_vals:
                cur = reg.access(
                    ctx, idx, lambda old: (old, old) if was_init else (0, 0),
                )
                vals.append(cur)
            last_seq = self.backend.reg_seq.access(ctx, idx, _keep)
            rec.vals = vals[:nvals]
            rec.initialized = True
            rec.last_seq = last_seq
            self._emit_reply(ctx, switch, RedPlaneMessage(
                seq=last_seq,
                msg_type=MessageType.LEASE_NEW_ACK,
                flow_key=key,
                vals=vals[:nvals],
                piggyback=msg.piggyback,
                aux=1 if was_init else 0,
            ), requester_ip, origin_uid)
            return

        if mt is MessageType.REPL_WRITE_REQ:
            seq = msg.seq & 0xFFFFFFFF
            old_seq = self.backend.reg_seq.access(
                ctx, idx, lambda old: (max(old, seq), old)
            )
            applied = seq > old_seq
            if applied:
                self._c_applied.inc()
                self.backend.reg_init.access(ctx, idx, _set_one)
                n_new = len(msg.vals)
                self.backend.reg_nvals.access(
                    ctx, idx, lambda _old: (n_new, n_new)
                )
                for i, reg in enumerate(self.backend.reg_vals):
                    seed = msg.vals[i] if i < n_new else 0
                    reg.access(ctx, idx, lambda _old, v=seed: (v, v))
                rec.vals = list(msg.vals)
                rec.initialized = True
                rec.last_seq = seq
            else:
                self._c_stale.inc()
            self._emit_reply(ctx, switch, RedPlaneMessage(
                seq=max(old_seq, seq),
                msg_type=MessageType.REPL_WRITE_ACK,
                flow_key=key,
                piggyback=msg.piggyback,
            ), requester_ip, origin_uid)
            return

        if mt is MessageType.LEASE_RENEW_REQ:
            last_seq = self.backend.reg_seq.access(ctx, idx, _keep)
            self._emit_reply(ctx, switch, RedPlaneMessage(
                seq=last_seq,
                msg_type=MessageType.LEASE_RENEW_ACK,
                flow_key=key,
            ), requester_ip, origin_uid)
            return

        raise ValueError(f"unexpected request type {mt!r}")

    def _emit_reply(self, ctx: PipelineContext, switch,
                    reply: RedPlaneMessage, requester_ip: int,
                    origin_uid: int) -> None:
        pkt = make_protocol_packet(
            switch.ip, requester_ip, reply,
            sport=NETCHAIN_UDP_PORT, dport=SWITCH_UDP_PORT,
        )
        if origin_uid:
            pkt.meta["parent_uid"] = origin_uid
        ctx.emit(pkt)
