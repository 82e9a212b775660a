"""The fast-path runtime: installation, dispatch, flow caches, and stats.

:class:`FastPath` is the single object the rest of the tree knows about.
Installing it sets ``sim.fastpath``; :class:`~repro.switch.asic.SwitchASIC`
consults that attribute per packet and hands the packet over when a
compiled flow-cache entry exists. Uninstalling (or never installing)
leaves every ASIC on the full pipeline — that is the A/B lever the
identity tests and ``repro.tools fastpath --diff`` pull.

What lives here is the part of the acceleration that is genuinely
optional: the per-ASIC **flow caches** (:mod:`repro.fastpath.flowcache`)
— compiled classification/partition decisions, each a pure function of
its packet's cache signature, so only a change of the pipeline's
composition retires them. The per-hop work (link directions, ECMP
results) is compiled in :mod:`repro.net` itself and runs with or without
a :class:`FastPath`.

Everything is constructed lazily on first contact with a packet, so
installation is O(1) and topology-agnostic.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import (
    RedPlaneEngine,
    RedPlaneMode,
    SWITCH_UDP_PORT,
    _PROTOCOL_PORTS,
)
from repro.fastpath.flowcache import Entry, replay_app, replay_bypass, replay_transit
from repro.net.constants import CACHE_CAP
from repro.net.packet import TCPHeader, UDPHeader


class _AsicCache:
    """Per-SwitchASIC compiled state: eligibility + flow entries."""

    __slots__ = ("engine", "pipeline_version", "payload_sensitive", "entries",
                 "hits", "misses")

    def __init__(self, engine, pipeline_version, payload_sensitive):
        self.engine = engine
        self.pipeline_version = pipeline_version
        self.payload_sensitive = payload_sensitive
        self.entries = {}
        self.hits = 0
        self.misses = 0


class FastPath:
    """Compiled fast paths over one :class:`~repro.net.simulator.Simulator`."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._asics = {}  # id(switch) -> _AsicCache or None (ineligible)
        self.pipeline_invalidations = 0
        self.capacity_flushes = 0

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def install(cls, sim) -> "FastPath":
        """Create and activate a fast path on ``sim`` (idempotent)."""
        fp = sim.fastpath
        if fp is None:
            fp = sim.fastpath = cls(sim)
        return fp

    def uninstall(self) -> None:
        """Deactivate: every subsequent packet runs the full pipeline."""
        if self.sim.fastpath is self:
            self.sim.fastpath = None

    # -- names bench/ still resolves -----------------------------------------
    # bench/trace.py lists these two as tracer targets and bench/tests
    # index them on the class; bench/ is frozen while a change claims a
    # gain. They delegate to the default hop path, nothing calls them,
    # and they go when the tracer is retargeted.

    def link_transmit(self, link, pkt, src_port) -> bool:
        link.transmit(pkt, src_port)
        return True

    def select_port(self, switch, pkt):
        return switch.select_port(pkt)

    # -- flow caches --------------------------------------------------------

    def _compile_asic(self, switch) -> Optional[_AsicCache]:
        """Decide whether an ASIC's pipeline is fast-path eligible.

        Eligible means: exactly one control block, and it is a
        :class:`RedPlaneEngine` whose application declares its partition
        inputs (``partition_inputs`` of ``"flow"`` or ``"packet"``).
        Anything else — custom blocks, multi-block pipelines, apps that
        opted out — keeps the reference path forever.
        """
        blocks = switch.pipeline.blocks
        if len(blocks) != 1 or not isinstance(blocks[0], RedPlaneEngine):
            return None
        engine = blocks[0]
        inputs = getattr(engine.app, "partition_inputs", None)
        if inputs not in ("flow", "packet"):
            return None
        return _AsicCache(engine, switch.pipeline.version, inputs == "packet")

    def asic_process(self, switch, pkt) -> bool:
        """Try to replay a compiled decision for one ASIC packet.

        Returns ``True`` when the packet was fully handled (side effects
        bit-identical to the reference pipeline); ``False`` defers to the
        reference path, which also records the entry for next time.
        """
        sid = id(switch)
        ac = self._asics.get(sid, 0)
        if ac == 0:
            ac = self._asics[sid] = self._compile_asic(switch)
        if ac is None:
            return False
        if ac.pipeline_version != switch.pipeline.version:
            ac = self._asics[sid] = self._compile_asic(switch)
            self.pipeline_invalidations += 1
            if ac is None:
                return False
        ip = pkt.ip
        if ip is None:
            return False
        meta = pkt.meta
        l4 = pkt.l4
        is_udp = type(l4) is UDPHeader
        if is_udp and (l4.dport in _PROTOCOL_PORTS or l4.sport in _PROTOCOL_PORTS):
            if ip.dst == switch.ip and l4.dport == SWITCH_UDP_PORT:
                return False  # response to this engine: reference path
            kind = "transit"
            sig = (ip.src, ip.dst, ip.proto, l4.sport, l4.dport, pkt.vlan)
        else:
            if meta.get("rp_kind") is not None:
                return False  # protocol-tagged but oddly addressed: be safe
            if ac.engine.mode is not RedPlaneMode.LINEARIZABLE:
                return False  # bounded mode: snapshot paths stay reference
            kind = "app"
            if is_udp or type(l4) is TCPHeader:
                sig = (ip.src, ip.dst, ip.proto, l4.sport, l4.dport, pkt.vlan)
            else:
                sig = (ip.src, ip.dst, ip.proto, 0, 0, pkt.vlan)
            if ac.payload_sensitive:
                sig = sig + (pkt.payload,)
        entry = ac.entries.get(sig)
        if entry is None:
            # First packet: the reference pipeline runs and we record the
            # compiled decision for the next packet.
            ac.misses += 1
            if len(ac.entries) >= CACHE_CAP:
                ac.entries.clear()
                self.capacity_flushes += 1
            if kind == "app":
                key = ac.engine.app.partition_key(pkt)
                if key is None:
                    kind = "bypass"
                entry = Entry(kind, key)
            else:
                entry = Entry("transit", None)
            ac.entries[sig] = entry
            return False
        ac.hits += 1
        if entry.kind == "transit":
            replay_transit(switch, pkt, ip)
        elif entry.kind == "bypass":
            replay_bypass(switch, pkt, ip)
        else:
            replay_app(entry, ac.engine, switch, pkt, ip)
        return True

    # -- stats --------------------------------------------------------------

    def stats(self) -> dict:
        """Aggregated cache statistics (what ``repro.tools fastpath`` prints)."""
        per_switch = {}
        hits = misses = entries = 0
        for ac in self._asics.values():
            if ac is None:
                continue
            name = ac.engine.switch.name
            per_switch[name] = {
                "hits": ac.hits,
                "misses": ac.misses,
                "entries": len(ac.entries),
            }
            hits += ac.hits
            misses += ac.misses
            entries += len(ac.entries)
        return {
            "flow_cache": {
                "hits": hits,
                "misses": misses,
                "entries": entries,
                "per_switch": per_switch,
            },
            "invalidations": {"pipeline": self.pipeline_invalidations},
            "capacity_flushes": self.capacity_flushes,
        }
