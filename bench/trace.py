"""Outside-in layer tracer: spans around the entry points of each layer.

The tracer replaces methods *on the classes* (and functions in every
``repro`` module namespace that imported them) with timing wrappers, and
puts the originals back when the traced run ends. Nothing under ``src/``
changes and an untraced run executes none of this.

Each wrapped call is a span: layer, operation, start, end, the enclosing
span, and the id of the packet it works for (``meta["uid"]``, inherited
from the enclosing span when the call has no packet of its own). A span's
self time is its duration minus the time its child spans cover, so the
self times of all layers sum to the duration of the region's root span.

Aggregates (calls, inclusive and self time per layer; calls and inclusive
time per operation) are kept for every call. Full span rows are kept in
memory only for packets whose uid is a multiple of ``sample_every`` and
are written as JSONL by :meth:`LayerTracer.write_rows` after the run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def _pkt1(args: tuple) -> Any:
    return args[1]


def _ctx1(args: tuple) -> Any:
    return args[1].pkt


#: Class targets: (module, class, layer, methods). A method is a name or
#: ``(name, packet-extractor)``. ``subclasses=True`` wraps the method on
#: every subclass that defines its own.
CLASS_TARGETS: Tuple[Tuple[str, str, str, tuple, bool], ...] = (
    ("repro.net.simulator", "Simulator", "net.simulator",
     ("schedule_at", "run", "run_until_idle"), False),
    ("repro.net.links", "Link", "net.links",
     (("transmit", _pkt1), ("_deliver", _pkt1), "_drop"), False),
    ("repro.net.links", "Port", "net.links", (("send", _pkt1),), False),
    # Lanes are the fast path's link layer: same work, same name, so a
    # link-layer change reads the same on both NAT workloads.
    ("repro.fastpath.lanes", "Lane", "net.links",
     (("transmit", _pkt1), "_deliver_batch"), False),
    ("repro.net.packet", "Packet", "net.packet",
     ("byte_size", "copy", "to_bytes", "from_bytes"), False),
    ("repro.net.packet", "EthernetHeader", "net.packet", ("pack", "unpack"), False),
    ("repro.net.packet", "IPv4Header", "net.packet", ("pack", "unpack"), False),
    ("repro.net.packet", "UDPHeader", "net.packet", ("pack", "unpack"), False),
    ("repro.net.packet", "TCPHeader", "net.packet", ("pack", "unpack"), False),
    ("repro.net.routing", "L3Switch", "net.routing",
     (("forward", _pkt1), "set_port_belief"), False),
    ("repro.net.hosts", "Host", "net.hosts",
     (("receive", _pkt1), ("send", _pkt1)), False),
    ("repro.switch.asic", "SwitchASIC", "switch.asic", (("process", _pkt1),), False),
    ("repro.switch.pipeline", "Pipeline", "switch.pipeline", (("run", _ctx1),), False),
    ("repro.switch.registers", "RegisterArray", "switch.registers", ("access",), False),
    ("repro.switch.registers", "PairedRegisterArray", "switch.registers",
     ("access",), False),
    ("repro.switch.control_plane", "SwitchControlPlane", "switch.control_plane",
     ("submit", ("punt", _pkt1), "reinject", "_cpu_run", "_execute",
      "_deliver_punt", "_reinject_arrive"), False),
    ("repro.switch.mirror", "MirrorSession", "switch.mirror",
     (("mirror", _pkt1), "release", "_one_pass"), False),
    ("repro.core.engine", "RedPlaneEngine", "core.engine",
     (("process", _ctx1), "_mirror_pass", "_finish_install",
      "reclaim_idle_flows"), False),
    ("repro.core.app", "InSwitchApp", "apps", ("process", "partition_key"), True),
    ("repro.statestore.server", "StateStoreNode", "statestore.server",
     (("_on_request_packet", _pkt1), "_process_request",
      ("_on_chain_packet", _pkt1), "_apply_chain", "_drain_pending"), False),
    ("repro.statestore.failover", "StoreFailoverCoordinator",
     "statestore.server", ("_tick",), False),
    ("repro.statestore.backend", "StateStoreBackend", "statestore.backend",
     ("commit", "record", "get", "recover", "wipe"), True),
    ("repro.telemetry.trace", "Tracer", "telemetry.trace", ("emit",), False),
    ("repro.telemetry.metrics", "MetricRegistry", "telemetry.metrics",
     ("counter", "gauge", "histogram", "total", "snapshot"), False),
    ("repro.fastpath.runtime", "FastPath", "fastpath",
     (("asic_process", lambda a: a[2]), "link_transmit", "select_port"), False),
    ("repro.shard.frames", "FrameConn", "shard", ("send", "recv"), False),
    ("repro.model.monitors", "InvariantMonitor", "model", ("_sample",), False),
    ("repro.observe.heartbeat", "HeartbeatEmitter", "observe.health",
     ("snapshot",), False),
    ("repro.observe.health", "HealthMonitor", "observe.health", ("observe",), False),
    ("repro.chaos.scorecard", "Scorecard", "chaos.fuzz", ("add", "to_dict"), False),
)

#: Function targets: (module, function, layer). Patched in every loaded
#: ``repro`` module namespace that holds the same function object.
FUNCTION_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.deploy", "deploy", "deploy"),
    ("repro.core.protocol", "make_protocol_packet", "core.protocol"),
    ("repro.core.protocol", "parse_protocol_packet", "core.protocol"),
    ("repro.shard.runner", "resolve", "shard"),
    ("repro.shard.runner", "run_one_shard", "shard"),
    ("repro.shard.worker", "run_process_shards", "shard"),
    ("repro.shard.merge", "summary_results", "shard"),
    ("repro.chaos.fuzz", "generate_spec", "chaos.fuzz"),
    ("repro.chaos.runner", "run_campaign_result", "chaos.runner"),
    ("repro.model.linearizability", "check_counter_history", "model"),
)

#: Every layer a span can carry, in outside-in order (the ``*.self_s``
#: per-layer metrics; their sum is the traced region's wall).
LAYERS: Tuple[str, ...] = (
    "net.simulator", "net.links", "net.packet", "net.routing", "net.hosts",
    "switch.asic", "switch.pipeline", "switch.registers",
    "switch.control_plane", "switch.mirror", "core.engine", "core.protocol",
    "apps", "statestore.server", "statestore.backend", "telemetry.trace",
    "telemetry.metrics", "fastpath", "deploy", "shard", "chaos.fuzz",
    "chaos.runner", "model", "observe.health",
)


def _all_subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class LayerTracer:
    """Install wrappers, run one region under them, read the aggregates."""

    def __init__(self, sample_every: int = 64) -> None:
        self.sample_every = sample_every
        #: layer -> [calls, inclusive ns, self ns]
        self.layers: Dict[str, List[int]] = {name: [0, 0, 0] for name in LAYERS}
        #: (layer, op) -> [calls, inclusive ns]
        self.ops: Dict[Tuple[str, str], List[int]] = {}
        #: ``schedule_at`` calls by the layer of the span that made them.
        self.schedules_by_layer: Dict[str, int] = {}
        #: Sampled span rows.
        self.rows: List[tuple] = []
        #: Simulators whose ``run*`` was called inside the region.
        self.sims: Dict[int, Any] = {}
        self.region_ns = 0
        self._active = False
        self._stack: List[list] = []
        self._next_span = 1
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- install / uninstall ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, cls_name, layer, methods, subclasses in CLASS_TARGETS:
            base = getattr(importlib.import_module(module), cls_name)
            classes = [base] + (list(_all_subclasses(base)) if subclasses else [])
            for cls in classes:
                for method in methods:
                    name, pkt_of = method if isinstance(method, tuple) else (method, None)
                    if name in cls.__dict__:
                        self._wrap_method(cls, name, layer, pkt_of)
        for module, fn_name, layer in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module), fn_name)
            wrapper = self._make_wrapper(original, layer, fn_name, None)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_method(self, cls: type, name: str, layer: str,
                     pkt_of: Optional[Callable[[tuple], Any]]) -> None:
        raw = cls.__dict__[name]
        self._patches.append((cls, name, raw))
        hook = None
        if cls.__name__ == "Simulator" and name.startswith("run"):
            hook = self._note_sim
        op = f"{cls.__name__}.{name}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(
                self._make_wrapper(raw.__func__, layer, op, None))
        else:
            wrapped = self._make_wrapper(
                raw, layer, op, pkt_of, hook,
                count_parent=(cls.__name__ == "Simulator"
                              and name == "schedule_at"))
        setattr(cls, name, wrapped)

    def _note_sim(self, args: tuple) -> None:
        self.sims[id(args[0])] = args[0]

    # -- the wrapper -----------------------------------------------------------------

    def _make_wrapper(self, fn: Callable, layer: str, op: str,
                      pkt_of: Optional[Callable[[tuple], Any]],
                      hook: Optional[Callable[[tuple], None]] = None,
                      count_parent: bool = False) -> Callable:
        agg = self.layers.setdefault(layer, [0, 0, 0])
        stat = self.ops.setdefault((layer, op), [0, 0])
        stack = self._stack
        rows = self.rows
        by_parent = self.schedules_by_layer
        every = self.sample_every
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer._active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            sid = parent[1]
            if sid is None and pkt_of is not None:
                pkt = pkt_of(args)
                meta = getattr(pkt, "meta", None)
                if meta is not None:
                    sid = meta.get("uid")
            if count_parent:
                by_parent[parent[3]] = by_parent.get(parent[3], 0) + 1
            if hook is not None:
                hook(args)
            span = None
            if sid is not None and sid % every == 0:
                span = tracer._next_span
                tracer._next_span = span + 1
            frame = [0, sid, span, layer]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                stat[0] += 1
                stat[1] += dur
                parent[0] += dur
                if span is not None:
                    rows.append((span, parent[2], layer, op, t0, t0 + dur, sid))

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", op)
        wrapper.__qualname__ = getattr(fn, "__qualname__", op)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- the traced region --------------------------------------------------------------

    @contextmanager
    def region(self, layer: str) -> Iterator[None]:
        """The root span: everything timed between enter and exit."""
        if self._active:
            raise RuntimeError("regions do not nest")
        agg = self.layers.setdefault(layer, [0, 0, 0])
        root = [0, None, 0, layer]
        self._stack.append(root)
        self._active = True
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            dur = time.perf_counter_ns() - t0
            self._active = False
            self._stack.pop()
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - root[0]
            self.region_ns += dur
            self.rows.append((0, None, layer, "region", t0, t0 + dur, None))

    # -- reading ---------------------------------------------------------------------------

    def self_s(self, layer: str) -> float:
        return self.layers.get(layer, (0, 0, 0))[2] / 1e9

    def self_sum_s(self) -> float:
        return sum(v[2] for v in self.layers.values()) / 1e9

    def _op_stats(self, layer: str, ops: Tuple[str, ...]) -> Iterator[List[int]]:
        """Operations are ``Class.method`` or a function name; ``*.method``
        matches the method on every class of the layer."""
        for (op_layer, op), stat in self.ops.items():
            if op_layer == layer and any(
                    op.endswith(want[1:]) if want.startswith("*.")
                    else op == want for want in ops):
                yield stat

    def calls(self, layer: str, *ops: str) -> int:
        return sum(stat[0] for stat in self._op_stats(layer, ops))

    def inclusive_s(self, layer: str, *ops: str) -> float:
        return sum(stat[1] for stat in self._op_stats(layer, ops)) / 1e9

    def registry_total(self, name: str, **labels: Any) -> float:
        """A registry counter summed over every simulator the region ran."""
        return sum(sim.metrics.total(name, **labels)
                   for sim in self.sims.values())

    def write_rows(self, path: str) -> int:
        """Write the sampled spans as JSONL; returns the row count."""
        with open(path, "w", encoding="utf-8") as fh:
            for span, parent, layer, op, t0, t1, sid in self.rows:
                fh.write(json.dumps({
                    "span": span, "parent": parent, "layer": layer, "op": op,
                    "start_ns": t0, "end_ns": t1, "id": sid,
                }) + "\n")
        return len(self.rows)
