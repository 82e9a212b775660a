"""The per-switch flow fast-path cache.

This is the simulation analogue of match-action flow caching in real
switch software stacks: the first packet of a flow walks the full
:class:`~repro.switch.asic.SwitchASIC` pipeline (the reference
interpreter) and the dispatcher records what the walk *decided* — the
packet's classification and, for application flows, the resolved
partition key. Subsequent packets of the same flow replay that decision
without re-deriving it.

What is cached is deliberately narrow: an entry holds only its kind and
its partition key, and both are *pure functions of the packet's cache
signature* (the ``partition_inputs`` contract of
:class:`~repro.core.app.InSwitchApp`). Everything else an entry's replay
needs — the flow-table index, register values, lease state, sequence
numbers, routing state — is read live, and the application's state
transition runs through the exact reference helpers
(:meth:`RedPlaneEngine._flow_index`, ``_leased_path``,
``_no_lease_path``). The facts a signature does not determine are
static per ASIC (protocol port set, ``switch.ip``, ``engine.mode``) or
pinned by the pipeline's composition version, which the dispatcher
checks on every packet. So there is nothing a mutation elsewhere could
make stale, and no entry is ever invalidated.

That is what makes bit-identical replay provable: the ``repro.verify``
RP140 rule statically checks that the ``replay_*`` functions below touch
nothing outside :data:`REPLAY_EFFECTS`, and RP141 checks that every
application declares whether its partition decision reads the payload
(so the cache signature includes it).
"""

from __future__ import annotations

from repro.switch.pipeline import PipelineContext, Verdict

#: Attributes/methods the ``replay_*`` functions may touch — the
#: statically-enforced side-effect surface (verify rule RP140). Everything
#: here is either a reference-path helper (so effects are the reference
#: implementation's own) or read-only.
REPLAY_EFFECTS = {
    # reference-path helpers (side effects happen in reference code)
    "_leased_path", "_no_lease_path", "_record", "_flow_index",
    "_egress", "_drop_to_self", "punt", "read",
    # counters/metrics handles
    "inc", "_c", "_c_pkts_processed", "_c_bytes_protocol_in",
    # read-only accessors
    "get", "meta", "ip", "l4", "wire_size", "pkt", "verdict", "emitted",
    "block_obj", "sim", "now", "name", "control_plane", "reg_lease_expiry",
}


class Entry:
    """One compiled flow-cache entry: ``"transit"``, ``"bypass"`` or
    ``"app"``, plus the app flow's partition key (see module docstring)."""

    __slots__ = ("kind", "key")

    def __init__(self, kind, key):
        self.kind = kind
        self.key = key


def replay_transit(switch, pkt, ip):
    """Replay the reference pipeline for a protocol packet in transit.

    Mirrors :meth:`SwitchASIC.process` for the path where the engine
    classifies the packet as protocol traffic not addressed to this
    switch: accounting, verdict FORWARD, egress byte counting, forward.
    """
    switch._c_pkts_processed.inc()
    meta = pkt.meta
    if meta.get("rp_kind") == "response":
        switch._c_bytes_protocol_in.inc(
            pkt.wire_size - int(meta.get("rp_piggyback_len", 0))
        )
    if ip.dst == switch.ip:
        # Addressed to the switch itself but no block consumed it.
        switch._drop_to_self()
    else:
        switch._egress(pkt)


def replay_bypass(switch, pkt, ip):
    """Replay for traffic the application ignores (partition key None)."""
    switch._c_pkts_processed.inc()
    if ip.dst == switch.ip:
        switch._drop_to_self()
    else:
        switch._egress(pkt)


def replay_app(entry, eng, switch, pkt, ip):
    """Replay for an application-owned flow.

    Skips re-deriving classification and partition key, then hands the
    packet to the *reference* per-packet paths — the flow-table lookup,
    the application's state transition, lease checks, and replication
    all execute live against the real tables and registers, so state
    evolution is the reference path's own.
    """
    switch._c_pkts_processed.inc()
    ctx = PipelineContext(pkt=pkt, now=switch.sim.now)
    ctx.block_obj = eng
    key = entry.key
    eng._c["app_packets"].inc()
    if eng.config.record_history and not pkt.meta.get("rp_reinjected"):
        eng._record(key, pkt)
    idx = eng._flow_index(key)
    now = switch.sim.now
    lease_expiry = eng.reg_lease_expiry.read(ctx, idx)
    if lease_expiry <= now:
        eng._no_lease_path(ctx, key, idx, now, lease_expiry)
    else:
        eng._leased_path(ctx, key, idx, now)
    ctx.block_obj = None
    verdict = ctx.verdict
    if verdict is Verdict.FORWARD:
        if ip.dst == switch.ip:
            switch._drop_to_self()
        else:
            switch._egress(pkt)
    elif verdict is Verdict.PUNT:
        switch.control_plane.punt(pkt)
    for out in ctx.emitted:
        switch._egress(out)
