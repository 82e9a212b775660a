"""Pass 5: the state-partition & shard-safety analyzer (``RS4xx``).

RedPlane's correctness story rests on per-flow state partitioning: the
protocol is per-flow linearizable because every piece of protected state
is keyed by the 5-tuple ``FlowKey`` and ECMP pins a partition to one
switch. The ROADMAP's sharded parallel simulation needs that property
*proven statically* per app before the flow population can be split
across worker processes. This pass is that gatekeeper.

For every deployed application it classifies each register array, match
table, and counter into the partition-class lattice::

    flow_local  <  flow_hash  <  global

* **flow_local** — every access is indexed by a pure function of packet
  header fields (the 5-tuple / VLAN): state splits cleanly along any
  flow partition.
* **flow_hash** — indexed through a compressing hash or a key parsed
  out of the payload (KV object ids, GTP user ids, crc slots): state
  splits along the *derived* key, which the plan reports, so a sharded
  runner must partition flows by that key's hash.
* **global** — anything two different flows can touch (sketch rows,
  Bloom bits, sequencer counters): cannot be split; the sharded runner
  must serialize or replicate it.

The classifier is the pipeline verifier's walker
(:class:`repro.verify.astutil.Walker`) with a different lattice: it
walks the ``partition_key``/``process`` methods of the live deployed
app, and an expression's value is the set of packet-field inputs it
derives from, propagated through local assignments, inlined helpers,
struct unpacks and hash calls. Every structure access is recorded with
the derivation of its index. Inference assigns the *tightest provable*
class; an app may declare a weaker one (``shard_class = "global"`` with
a mandatory ``shard_reason``) but never a tighter one (RS402).

The result is a deterministic shard plan per app — partitionable state,
inferred keys and global residue — committed under
``shard_plans/<app>.json`` (a sharded launch refuses a drifted one) and
rendered by ``repro.tools verify --plan``.
"""

from __future__ import annotations

import ast
import inspect
import json
from dataclasses import dataclass
from itertools import zip_longest
from types import FunctionType
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.snapshot import LazySnapshotArray
from repro.net.packet import FlowKey
from repro.verify import astutil
from repro.verify.astutil import Frame, Path, Ref, concrete
from repro.verify.diagnostics import Report, SuppressionIndex
from repro.verify.pipeline_pass import deployed

# -- the partition-class lattice ----------------------------------------------

#: Weakest-to-strongest is right to left: ``global`` makes no promise,
#: ``flow_local`` the strongest one.
CLASSES = ("flow_local", "flow_hash", "global")


def class_rank(name: str) -> int:
    return CLASSES.index(name)


def widest(*names: str) -> str:
    """The loosest (most conservative) of the given classes."""
    return max(names, key=class_rank)


# -- symbolic field tokens -----------------------------------------------------

#: Marker for "the packet object itself" flowing through a local name.
_T_PKT = "@pkt"
_T_CONST = "const"      # configuration / literal: same for every packet
_T_PAYLOAD = "payload"  # parsed out of packet bytes
_T_HASH = "hash"        # passed through a compressing hash
_T_UNKNOWN = "?"

_HEADER_FIELDS = frozenset(
    {"ip.src", "ip.dst", "ip.proto", "l4.sport", "l4.dport", "vlan"}
)
_FLOW_TUPLE = frozenset(
    {"ip.src", "ip.dst", "ip.proto", "l4.sport", "l4.dport"}
)
#: Everything a classifiable index may derive from.
_KEY_INPUTS = _HEADER_FIELDS | {_T_PAYLOAD, _T_HASH}

#: Compressing hash functions: their output indexes a bounded slot
#: domain, so distinct keys can collide (flow_hash at best).
_HASH_FUNCS = frozenset({"sketch_hash", "crc32", "adler32", "hash"})

#: FlowKey methods that pass their receiver's derivation through.
_PASS_THROUGH = frozenset({"canonical", "reversed", "pack", "to_bytes"})

#: Builtins whose result derives from all of their arguments.
_DERIVING = frozenset({"min", "max", "abs", "int", "sum", "enumerate", "zip"})

#: Stateful-structure access methods; the index is always argument 1
#: (after the pipeline ctx).
_ACCESS_METHODS = frozenset(
    {"update", "test_and_set", "access", "read", "write"}
)

#: Live values that are the same for every packet.
_CONST_TYPES = (int, float, str, bytes, bool, FlowKey)

_CONST = frozenset({_T_CONST})
_UNKNOWN = frozenset({_T_UNKNOWN})


def _kind_of(obj: object) -> str:
    if isinstance(obj, LazySnapshotArray):
        return "snapshot_array"
    return "register_array"


@dataclass
class _Access:
    """One packet-path access to an app-owned structure."""

    struct: str                 # owning app attribute
    method: str
    index: FrozenSet[str]       # field tokens of the index expression
    file: str
    line: int


# -- classification ------------------------------------------------------------


def _classify(tokens: FrozenSet[str]) -> Tuple[str, FrozenSet[str]]:
    """(class, key fields) of an index/key derivation token set.

    ``"unknown"`` (not in the lattice) means the derivation escaped the
    analyzer; callers degrade it to ``global`` after diagnosing.
    """
    t = frozenset(tokens) - {_T_CONST}
    if not t:
        return "global", frozenset()      # constant: one slot, all flows
    if not t <= _KEY_INPUTS:
        return "unknown", t - _KEY_INPUTS
    fields = t - {_T_HASH}
    if _T_HASH in t or _T_PAYLOAD in t:
        return "flow_hash", fields
    return "flow_local", fields


# -- the per-app analyzer ------------------------------------------------------


class _PartitionAnalyzer(astutil.Walker):
    """Runs the RS400-405/407 checks over one deployed app and builds
    its shard plan.

    The lattice: a value is the set of field tokens an expression
    derives from; paths record no events. Structure accesses are facts
    about the app's code, collected once each in walk order.
    """

    UNKNOWN = _UNKNOWN
    NONE = None
    RAISE = None
    CONFIG = _CONST

    def __init__(self, dep, label: str,
                 report: Report, supp: SuppressionIndex,
                 root: Optional[str]) -> None:
        super().__init__(report, supp, root)
        self.label = label
        self.site = f"app={label}"
        switch = dep.switches[0]
        self.app = dep.apps[switch.name]
        self.engine = dep.engines[switch.name]
        self.structs = astutil.stateful_objects(self.app)
        self._owner = {id(obj): attr for attr, obj in self.structs}
        self.accesses: List[_Access] = []

    # -- the lattice ------------------------------------------------------------

    def join(self, values) -> FrozenSet[str]:
        return frozenset().union(*values)

    def eval(self, node: Optional[ast.AST], frame: Frame) -> List[Path]:
        return [Path({}, _CONST if node is None
                     else frozenset(self._fields(node, frame)))]

    def _state_attr(self, ref: Optional[Ref]) -> Optional[str]:
        """The app attribute owning the structure (or collection of
        structures) ``ref`` denotes."""
        obj = ref.exemplar if ref is not None else None
        while isinstance(obj, (list, tuple, dict)):
            obj = astutil.first_member(obj)
        return self._owner.get(id(obj))

    def _fields(self, node: ast.expr, frame: Frame) -> Set[str]:
        if isinstance(node, ast.Constant):
            return {_T_CONST}
        if isinstance(node, ast.Name):
            return set(self._lookup(node.id, frame))
        if isinstance(node, ast.Attribute):
            return self._attr(node, frame)
        if isinstance(node, ast.Call):
            return self._call(node, frame)
        if isinstance(node, ast.Subscript):
            return self._fields(node.value, frame) | self._slice(
                node.slice, frame)
        if isinstance(node, ast.BinOp):
            return self._fields(node.left, frame) | self._fields(
                node.right, frame)
        if isinstance(node, ast.BoolOp):
            return self._union(node.values, frame)
        if isinstance(node, ast.Compare):
            return self._union([node.left, *node.comparators], frame)
        if isinstance(node, ast.UnaryOp):
            return self._fields(node.operand, frame)
        if isinstance(node, ast.IfExp):
            self._fields(node.test, frame)
            return self._fields(node.body, frame) | self._fields(
                node.orelse, frame)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return self._union(node.elts, frame) or {_T_CONST}
        if isinstance(node, ast.JoinedStr):
            return {_T_CONST}
        return {_T_UNKNOWN}

    def _union(self, nodes, frame: Frame) -> Set[str]:
        out: Set[str] = set()
        for n in nodes:
            out |= self._fields(n, frame)
        return out

    def _slice(self, node: ast.expr, frame: Frame) -> Set[str]:
        if isinstance(node, ast.Slice):
            parts = [p for p in (node.lower, node.upper, node.step) if p]
            return self._union(parts, frame) or {_T_CONST}
        return self._fields(node, frame)

    def _lookup(self, name: str, frame: Frame) -> FrozenSet[str]:
        if self._state_attr(frame.refs.get(name)) is not None:
            # A structure (e.g. ``array.size``): its geometry is
            # configuration, not a key input.
            return _CONST
        if name in frame.vals:
            return frame.vals[name]  # type: ignore[return-value]
        if name in frame.ns:
            value = frame.ns[name]
            if isinstance(value, _CONST_TYPES):
                return _CONST
            if inspect.ismodule(value) or isinstance(value, type):
                return _CONST
            if hasattr(value, "unpack_from"):  # struct.Struct instances
                return _CONST
            return _UNKNOWN
        if name in ("True", "False", "None"):
            return _CONST
        return _UNKNOWN

    def _attr(self, node: ast.Attribute, frame: Frame) -> Set[str]:
        chain = astutil.attr_chain(node)
        if chain is None:
            # Chain rooted in a call/subscript: derive from the base value
            # (e.g. ``pkt.flow_key().pack`` handled by the Call visitor; a
            # bare ``(a + b).attr`` inherits the base derivation).
            return self._fields(node.value, frame)
        if frame.refs.get(chain[0]) is not None:
            # A live object: its configuration, or opaque.
            ref = self.resolve(node, frame)
            if ref is not None and isinstance(ref.exemplar, _CONST_TYPES):
                return {_T_CONST}
            return {_T_UNKNOWN}
        base = self._lookup(chain[0], frame)
        if _T_PKT in base:
            return self._pkt_attr(chain[1:])
        if base == _CONST:
            return {_T_CONST}
        return {_T_UNKNOWN}

    @staticmethod
    def _pkt_attr(rest: List[str]) -> Set[str]:
        if not rest:
            return {_T_PKT}
        if rest[0] == "payload":
            return {_T_PAYLOAD}
        if rest[0] == "vlan":
            return {"vlan"}
        dotted = ".".join(rest[:2])
        if dotted in _HEADER_FIELDS:
            return {dotted}
        if rest[0] in ("ip", "l4") and len(rest) == 1:
            # The header object itself (None checks); not a key input.
            return {_T_PKT}
        return {_T_UNKNOWN}

    def _call(self, node: ast.Call, frame: Frame) -> Set[str]:
        func = node.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
            recv = func.value
            ref = self.resolve(recv, frame)
            sattr = self._state_attr(ref)
            if sattr is not None and attr in _ACCESS_METHODS:
                idx = (
                    frozenset(self._fields(node.args[1], frame))
                    if len(node.args) >= 2 else _UNKNOWN
                )
                self._union(node.args[2:], frame)
                self.accesses.append(
                    _Access(sattr, attr, idx, frame.file, node.lineno)
                )
                # The stored value is mutable state, not a key input.
                return {_T_UNKNOWN}
            if attr == "flow_key":
                return set(_FLOW_TUPLE)
            if attr in _PASS_THROUGH:
                return self._fields(recv, frame)
            if attr in ("unpack", "unpack_from", "from_bytes"):
                return (
                    self._fields(node.args[0], frame) if node.args
                    else {_T_UNKNOWN}
                )
            if attr in _HASH_FUNCS:
                return {_T_HASH} | self._union(node.args, frame)
            fn = self.method(ref, attr)
            if fn is not None:
                return self._inline(fn, ref, node, frame)
            self._union(node.args, frame)
            return {_T_UNKNOWN}

        if isinstance(func, ast.Name):
            name = func.id
            if name in _HASH_FUNCS:
                return {_T_HASH} | self._union(node.args, frame)
            if name in ("len", "isinstance", "range"):
                self._union(node.args, frame)
                return {_T_CONST}
            resolved = frame.ns.get(name)
            if name in _DERIVING or resolved is FlowKey:
                return self._union(node.args, frame) or {_T_CONST}
            if isinstance(resolved, FunctionType):
                return self._inline(resolved, None, node, frame)
            self._union(node.args, frame)
            return {_T_UNKNOWN}
        return {_T_UNKNOWN}

    def _inline(self, fn: FunctionType, self_ref: Optional[Ref],
                node: ast.Call, frame: Frame) -> Set[str]:
        """Bind argument derivations to parameters (unpassed ones are
        configuration) and take the union of the callee's returns."""
        code = fn.__code__
        params = code.co_varnames[int(self_ref is not None):code.co_argcount]
        bound: Dict[str, object] = {p: _CONST for p in params}
        for p, a in zip(params, node.args):
            bound[p] = frozenset(self._fields(a, frame))
        return self._returned(self.summarize(fn, self_ref, bound))

    @staticmethod
    def _returned(paths: Optional[List[Path]]) -> Set[str]:
        out: Set[str] = set()
        for p in paths or ():
            if p.ret is not None:
                out |= p.ret  # type: ignore[arg-type]
        return out or {_T_UNKNOWN}

    def _scan(self, method) -> Optional[List[Path]]:
        """Walk one packet-path method of the app: the packet rides in
        the parameter named ``pkt`` (or the first one), the rest are
        configuration."""
        fn = getattr(method, "__func__", method)
        code = getattr(fn, "__code__", None)
        if code is None:
            return None
        params = code.co_varnames[1:code.co_argcount]
        carrier = "pkt" if "pkt" in params else (params[0] if params else "")
        bound: Dict[str, object] = {
            p: frozenset({_T_PKT}) if p == carrier else _CONST
            for p in params
        }
        return self.summarize(fn, concrete(self.app), bound)

    # -- analysis --------------------------------------------------------------

    def run(self) -> Dict[str, object]:
        """The checks, then the app's shard plan."""
        app = self.app
        cls_file, cls_line = astutil.class_site(type(app))

        declared = getattr(app, "shard_class", None)
        reason = getattr(app, "shard_reason", None)
        if declared is not None and declared not in CLASSES:
            self.diag(
                "RS404",
                f"{type(app).__name__}.shard_class is {declared!r}; the "
                f"partition-class lattice is {', '.join(CLASSES)}",
                cls_file, cls_line,
            )
            declared = None
        if declared == "global" and not reason:
            self.diag(
                "RS403",
                f"{type(app).__name__} declares shard_class = 'global' "
                "without a shard_reason; say why the state is cross-flow",
                cls_file, cls_line,
            )

        struct_attrs = {attr for attr, _obj in self.structs}

        # Partition key inference.
        key_paths = self._scan(app.partition_key)
        returned = [p.ret for p in key_paths or () if p.ret is not None]
        key_tokens: FrozenSet[str] = frozenset().union(*returned)
        if returned:
            key_class, key_fields = _classify(key_tokens)
        else:
            key_class, key_fields = "unknown", frozenset()
        found = astutil.find_def(app.partition_key)
        key_file, key_line = (
            (found[1].path, found[0].lineno) if found else ("<unknown>", 1)
        )
        if key_class == "unknown":
            self.diag(
                "RS407",
                f"{type(app).__name__}.partition_key could not be "
                "statically analyzed"
                + (
                    f" (unresolved inputs: "
                    f"{', '.join(sorted(key_fields))})"
                    if key_fields else ""
                )
                + "; the plan conservatively treats its state as global",
                key_file, key_line,
            )
        key_class_eff = "global" if key_class == "unknown" else key_class

        # Packet-path structure accesses.
        self._scan(app.process)
        by_attr: Dict[str, List[_Access]] = {}
        for acc in self.accesses:
            by_attr.setdefault(acc.struct, []).append(acc)

        waived = declared == "global"
        struct_classes: Dict[str, Tuple[str, FrozenSet[str], str]] = {}
        for attr in sorted(struct_attrs):
            accs = by_attr.get(attr, [])
            if not accs:
                struct_classes[attr] = (
                    key_class_eff, key_fields, "no packet-path access"
                )
                continue
            tokens: FrozenSet[str] = frozenset()
            for acc in accs:
                tokens |= acc.index
            klass, fields = _classify(tokens)
            note = ""
            if klass == "unknown":
                if not waived:
                    self.diag(
                        "RS400",
                        f"access to {type(app).__name__}.{attr} has an "
                        f"index the analyzer cannot classify (unresolved "
                        f"inputs: {', '.join(sorted(fields)) or 'none'}); "
                        "a sharded run could not prove which shard owns "
                        "this state",
                        accs[0].file, accs[0].line,
                    )
                klass, note = "global", "unclassifiable index"
            elif not waived and klass != "global" and not (
                fields <= key_fields
            ):
                self.diag(
                    "RS401",
                    f"{type(app).__name__}.{attr} is indexed by "
                    f"{{{', '.join(sorted(fields))}}} but the app "
                    f"partition key derives from "
                    f"{{{', '.join(sorted(key_fields)) or 'nothing'}}}: "
                    "flows of different partitions share this structure; "
                    "declare shard_class = 'global' if that is intended",
                    accs[0].file, accs[0].line,
                )
                klass, note = "global", "keyed outside the partition key"
            struct_classes[attr] = (klass, fields, note)

        inferred = widest(
            key_class_eff,
            *(klass for klass, _f, _n in struct_classes.values()),
        ) if struct_classes else key_class_eff

        if declared is not None and class_rank(declared) < class_rank(
            inferred
        ):
            self.diag(
                "RS402",
                f"{type(app).__name__} declares shard_class = "
                f"{declared!r} but inference proves only {inferred!r}; "
                "a declaration may relax the inferred class, never "
                "tighten it",
                cls_file, cls_line,
            )
            # The invalid (too-tight) declaration does not bind: the
            # plan records the honest inferred class.
            declared = None
        if declared is None and inferred == "global" and (
            key_class != "unknown"
        ):
            self.diag(
                "RS405",
                f"{type(app).__name__} is inferred 'global' (its state "
                "is cross-flow) but declares no shard_class; annotate "
                "shard_class = 'global' with a shard_reason",
                cls_file, cls_line,
            )

        effective = declared if declared is not None else inferred
        return self._build_plan(
            declared, reason, effective,
            key_class, key_class_eff, key_fields, key_tokens,
            key_file, struct_classes,
        )

    # -- plan construction -----------------------------------------------------

    def _build_plan(self, declared, reason, effective,
                    key_class, key_class_eff, key_fields, key_tokens,
                    key_file, struct_classes) -> Dict[str, object]:
        app = self.app
        engine = self.engine

        def site(file: str, definition: object) -> str:
            # ``path::QualName``, not a line: a plan must not drift
            # because code above the definition it cites moved.
            return (f"{astutil.relpath(file, self.root)}::"
                    f"{definition.__qualname__}")

        entries: List[Dict[str, object]] = []
        engine_class = "global" if effective == "global" else key_class_eff
        eng_site = site(astutil.class_file(type(engine)), type(engine))
        engine_regs = [
            engine.reg_lease_expiry, engine.reg_cur_seq,
            engine.reg_last_acked, engine.reg_lease_pending,
            engine.reg_last_renew, *engine.state_regs,
        ]
        for reg in engine_regs:
            entries.append({
                "name": reg.name,
                "kind": "engine_register",
                "partition_class": engine_class,
                "key_fields": sorted(key_fields),
                "site": eng_site,
            })

        store_keys: Dict[int, List[str]] = {}
        keyed = app.snapshot_structures()
        for fkey in sorted(
            keyed,
            key=lambda k: (k.src_ip, k.dst_ip, k.proto, k.sport, k.dport),
        ):
            store_keys.setdefault(id(keyed[fkey]), []).append(
                f"{fkey.src_ip}.{fkey.dst_ip}.{fkey.proto}."
                f"{fkey.sport}.{fkey.dport}"
            )

        cls_site = site(astutil.class_file(type(app)), type(app))
        for i, (attr, obj) in enumerate(self.structs):
            klass, fields, note = struct_classes[attr]
            final = "global" if effective == "global" else klass
            entry: Dict[str, object] = {
                "name": str(getattr(obj, "name", None) or f"{attr}[{i}]"),
                "kind": _kind_of(obj),
                "attr": attr,
                "partition_class": final,
                "key_fields": sorted(
                    f for f in fields if f in _HEADER_FIELDS
                    or f == _T_PAYLOAD
                ),
                "site": cls_site,
            }
            if note:
                entry["note"] = note
            if id(obj) in store_keys:
                entry["store_keys"] = store_keys[id(obj)]
            entries.append(entry)
        entries.sort(key=lambda e: (e["name"], e["kind"]))

        residue = sorted(
            e["name"] for e in entries
            if e["partition_class"] == "global"
        )

        return {
            "format": 3,
            "app": self.label,
            "app_class": type(app).__name__,
            "partition_class": effective,
            "declared": {
                "shard_class": declared,
                "shard_reason": reason,
            },
            "partition_key": {
                "class": key_class,
                "fields": sorted(
                    f for f in key_fields
                    if f in _HEADER_FIELDS or f == _T_PAYLOAD
                ),
                "hashed": _T_HASH in key_tokens,
                "site": site(key_file, app.partition_key),
            },
            "structures": entries,
            "global_residue": residue,
        }


# -- public entry points -------------------------------------------------------


def verify_partition_app(
    factory,
    label: Optional[str] = None,
    report: Optional[Report] = None,
    suppressions: Optional[SuppressionIndex] = None,
    root: Optional[str] = None,
) -> Tuple[Report, Dict[str, object]]:
    """Deploy ``factory()`` exactly as the experiments do, run the
    partition analysis, and return (report, shard plan)."""
    from repro.deploy import deploy

    dep = deployed(deploy, factory)
    report = report if report is not None else Report()
    supp = suppressions if suppressions is not None else SuppressionIndex()
    name = label or getattr(
        dep.apps[dep.switches[0].name], "name", "app"
    )
    plan = _PartitionAnalyzer(dep, name, report, supp, root).run()
    report.analyzed[f"partition:{name}"] = (
        f"{plan['partition_class']}; "
        f"{len(plan['structures'])} structure(s)"  # type: ignore[arg-type]
    )
    return report, plan


def plan_json(plan: Dict[str, object]) -> str:
    """The canonical byte-deterministic serialization of a shard plan."""
    return json.dumps(plan, indent=2, sort_keys=True) + "\n"


_ABSENT = "<absent>"


def _first_difference(live: object, committed: object, path: str = "$") -> str:
    """The first JSON path (keys sorted, lists by index) at which two
    plans differ, with both values."""
    pairs: List[Tuple[str, object, object]] = []
    if isinstance(live, dict) and isinstance(committed, dict):
        pairs = [(f"{path}.{key}", live.get(key, _ABSENT),
                  committed.get(key, _ABSENT))
                 for key in sorted(set(live) | set(committed))]
    elif isinstance(live, list) and isinstance(committed, list):
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(
            zip_longest(live, committed, fillvalue=_ABSENT))]
    for step, a, b in pairs:
        if a != b:
            return _first_difference(a, b, step)
    return f"{path}: live code has {live!r}, committed plan has {committed!r}"


def plan_drift(plan: Dict[str, object], committed: str) -> Optional[str]:
    """The drift check a sharded launch runs on the committed plan:
    None when ``committed`` is byte-for-byte :func:`plan_json` of the
    live ``plan``, else where it differs — the first differing JSON path
    with both values."""
    fresh = plan_json(plan)
    if committed == fresh:
        return None
    try:
        stale = json.loads(committed)
    except ValueError:
        return "$: the committed file is not JSON"
    live = json.loads(fresh)
    if stale == live:
        return "$: the committed file is not in canonical form"
    return _first_difference(live, stale)


def render_plan(plan: Dict[str, object]) -> str:
    """Human rendering of one shard plan for ``verify --plan``."""
    lines: List[str] = []
    pk = plan["partition_key"]
    decl = plan["declared"]
    lines.append(
        f"{plan['app']} ({plan['app_class']}): "
        f"partition_class={plan['partition_class']}"
    )
    lines.append(
        f"  key: class={pk['class']} "
        f"fields=[{', '.join(pk['fields']) or '-'}]"
        f"{' hashed' if pk['hashed'] else ''}  ({pk['site']})"
    )
    if decl["shard_class"]:
        lines.append(
            f"  declared: {decl['shard_class']} -- "
            f"{decl['shard_reason'] or 'no reason'}"
        )
    for entry in plan["structures"]:
        fields = ", ".join(entry["key_fields"]) or "-"
        note = f" ({entry['note']})" if entry.get("note") else ""
        lines.append(
            f"  {entry['partition_class']:>10}  {entry['kind']:<16} "
            f"{entry['name']}  key=[{fields}]{note}"
        )
    residue = plan["global_residue"]
    lines.append(
        f"  global residue: {len(residue)} structure(s)"
        + (f" ({', '.join(residue[:4])}"
           + (", ..." if len(residue) > 4 else "") + ")"
           if residue else "")
    )
    return "\n".join(lines)
