"""Pass 5: the state-partition & shard-safety analyzer (``RS4xx``).

RedPlane's correctness story rests on per-flow state partitioning: the
protocol is per-flow linearizable because every piece of protected state
is keyed by the 5-tuple ``FlowKey`` and ECMP pins a partition to one
switch. The ROADMAP's sharded parallel simulation needs that property
*proven statically* per app before the flow population can be split
across worker processes, and fastpath v2's cohort replay needs it per
cache-entry kind. This pass is that gatekeeper.

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

The classifier works symbolically, like the pipeline verifier: it walks
the ``partition_key``/``process`` method ASTs of the live deployed app
(``repro.verify.astutil`` supplies the parsing, live objects supply name
resolution), propagating the set of packet-field inputs through local
assignments, one level of helper-call inlining, struct unpacks, and
hash calls. Inference assigns the *tightest provable* class; an app may
declare a weaker one (``shard_class = "global"`` with a mandatory
``shard_reason``) but never a tighter one (RS402).

The result is a deterministic shard plan per app — partitionable state,
inferred keys and global residue — committed under
``shard_plans/<app>.json`` (drift is RS408) and rendered by
``repro.tools verify --plan``.

RS410-412 are companion tree lints over the shard-boundary packages
(``repro.core``, ``repro.statestore``, ``repro.fastpath``, ``repro.net``)
for Python-level hazards that would break a multi-process split even
with perfectly partitioned switch state.
"""

from __future__ import annotations

import ast
import inspect
import os
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

from repro.core.snapshot import LazySnapshotArray
from repro.net.packet import FlowKey
from repro.switch.registers import PairedRegisterArray, RegisterArray
from repro.switch.tables import MatchTable
from repro.verify import astutil
from repro.verify.diagnostics import Diagnostic, Report, SuppressionIndex
from repro.verify.rules import RULES

# -- the partition-class lattice ----------------------------------------------

#: Weakest-to-strongest is right to left: ``global`` makes no promise,
#: ``flow_local`` the strongest one.
CLASSES = ("flow_local", "flow_hash", "global")

#: Valid ``EntryDep.partition_class`` values (RS406): the lattice plus
#: "app_keyed", which defers to the deployed app's shard plan.
ENTRY_CLASSES = frozenset(CLASSES) | {"app_keyed"}


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

#: Stateful-structure access methods; the index is always argument 1
#: (after the pipeline ctx).
_ACCESS_METHODS = frozenset(
    {"update", "test_and_set", "access", "read", "write"}
)

_STRUCT_TYPES = (RegisterArray, PairedRegisterArray, LazySnapshotArray,
                 MatchTable)

#: Packages whose Python-level state crosses shard-process boundaries.
_SHARD_SCOPES = frozenset({"core", "statestore", "fastpath", "net", "shard"})


def _find_def(func) -> Optional[Tuple[ast.FunctionDef, str]]:
    """The AST def (and file) of a live function, via its code object."""
    func = getattr(func, "__func__", func)
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    sf = astutil.load(code.co_filename)
    if sf is None:
        return None
    best: Optional[Tuple[int, ast.FunctionDef]] = None
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.FunctionDef) and node.name == code.co_name:
            delta = abs(node.lineno - code.co_firstlineno)
            if best is None or delta < best[0]:
                best = (delta, node)
    if best is None or best[0] > 16:
        return None
    return best[1], sf.path


def _class_site(obj: object) -> Tuple[str, int]:
    try:
        cls = obj if isinstance(obj, type) else type(obj)
        file = inspect.getsourcefile(cls) or "<unknown>"
        _, line = inspect.getsourcelines(cls)
        return file, line
    except (OSError, TypeError):  # pragma: no cover - builtins only
        return "<unknown>", 1


# -- structure inventory -------------------------------------------------------


@dataclass
class _Struct:
    """One stateful object owned by the app, grouped by instance attr."""

    attr: str            # the app attribute holding it
    name: str            # the structure's own register/table name
    kind: str            # snapshot_array | register_array | match_table
    obj: object


def _kind_of(obj: object) -> str:
    if isinstance(obj, LazySnapshotArray):
        return "snapshot_array"
    if isinstance(obj, MatchTable):
        return "match_table"
    return "register_array"


def _inventory(app: object) -> List[_Struct]:
    """Stateful structures reachable from the app's instance attributes."""
    out: List[_Struct] = []
    seen: Set[int] = set()

    def visit(attr: str, value: object, depth: int) -> None:
        if depth > 4 or id(value) in seen:
            return
        if isinstance(value, _STRUCT_TYPES):
            seen.add(id(value))
            name = getattr(value, "name", None) or f"{attr}[{len(out)}]"
            out.append(_Struct(attr, str(name), _kind_of(value), value))
        elif isinstance(value, (list, tuple)):
            for v in value:
                visit(attr, v, depth + 1)
        elif isinstance(value, dict):
            for k in sorted(value, key=repr):
                visit(attr, value[k], depth + 1)

    for attr in sorted(vars(app)):
        visit(attr, vars(app)[attr], 1)
    return out


# -- the symbolic method scanner -----------------------------------------------


@dataclass
class _Access:
    """One packet-path access to an app-owned structure."""

    struct: Optional[str]       # owning attr, None when unresolvable
    method: str
    index: FrozenSet[str]       # field tokens of the index expression
    file: str
    line: int


class _MethodScan:
    """Symbolically scan one packet-path method of a live app.

    Propagates field-token sets through assignments and one level of
    helper inlining; records every structure access with the derivation
    of its index expression, and every return value's derivation.
    """

    def __init__(self, app: object, func, struct_attrs: Set[str],
                 bound_env: Optional[Dict[str, FrozenSet[str]]] = None,
                 depth: int = 0) -> None:
        self.app = app
        self.struct_attrs = struct_attrs
        self.depth = depth
        self.returns: List[Tuple[FrozenSet[str], int]] = []
        self.accesses: List[_Access] = []
        self.analyzable = False
        self.file = "<unknown>"
        self.def_line = 1

        found = _find_def(func)
        if found is None:
            return
        fn_def, self.file = found
        self.def_line = fn_def.lineno
        func = getattr(func, "__func__", func)
        self.ns = getattr(func, "__globals__", {})

        params = [a.arg for a in fn_def.args.args]
        self.self_name = None
        if params and params[0] == "self":
            self.self_name = params[0]
            params = params[1:]
        self.env: Dict[str, FrozenSet[str]] = {}
        self.env_structs: Dict[str, str] = {}
        if bound_env is None:
            # Top-level packet-path method: the packet rides in the
            # first non-state parameter named pkt (or the first one).
            for p in params:
                self.env[p] = frozenset(
                    {_T_PKT} if p == "pkt" else {_T_CONST}
                )
            if "pkt" not in params and params:
                self.env[params[0]] = frozenset({_T_PKT})
        else:
            for p in params:
                self.env[p] = bound_env.get(p, frozenset({_T_CONST}))
        self.analyzable = True
        self._walk_body(fn_def.body)

    # -- statements -----------------------------------------------------------

    def _walk_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                self._assign(stmt.targets, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._assign([stmt.target], stmt.value)
            elif isinstance(stmt, ast.AugAssign):
                fields = self._fields(stmt.value)
                if isinstance(stmt.target, ast.Name):
                    prev = self.env.get(stmt.target.id, frozenset())
                    self.env[stmt.target.id] = prev | fields
            elif isinstance(stmt, ast.Return):
                if stmt.value is not None and not (
                    isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is None
                ):
                    self.returns.append(
                        (frozenset(self._fields(stmt.value)), stmt.lineno)
                    )
            elif isinstance(stmt, ast.If):
                self._fields(stmt.test)
                self._walk_body(stmt.body)
                self._walk_body(stmt.orelse)
            elif isinstance(stmt, ast.For):
                self._for(stmt)
            elif isinstance(stmt, ast.While):
                self._fields(stmt.test)
                self._walk_body(stmt.body)
                self._walk_body(stmt.orelse)
            elif isinstance(stmt, ast.With):
                self._walk_body(stmt.body)
            elif isinstance(stmt, ast.Expr):
                self._fields(stmt.value)
            elif isinstance(stmt, (ast.Try,)):
                self._walk_body(stmt.body)
                for handler in stmt.handlers:
                    self._walk_body(handler.body)
                self._walk_body(stmt.orelse)
                self._walk_body(stmt.finalbody)

    def _assign(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        sref = self._struct_ref(value)
        vfields = (
            None if sref is not None else frozenset(self._fields(value))
        )
        for target in targets:
            if isinstance(target, ast.Name):
                if sref is not None:
                    self.env_structs[target.id] = sref
                else:
                    self.env[target.id] = vfields or frozenset()
            elif isinstance(target, ast.Tuple):
                each = (
                    vfields if vfields is not None
                    else frozenset({_T_UNKNOWN})
                )
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self.env[elt.id] = each

    def _for(self, stmt: ast.For) -> None:
        it = stmt.iter
        is_enum = (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "enumerate"
        )
        src = it.args[0] if (is_enum and it.args) else it
        sref = self._struct_ref(src)
        target = stmt.target
        if is_enum and isinstance(target, ast.Tuple) and len(target.elts) == 2:
            counter, element = target.elts
            if isinstance(counter, ast.Name):
                # A row/slot counter over a fixed collection is the same
                # for every packet: structure geometry, not a flow key.
                self.env[counter.id] = frozenset({_T_CONST})
            if isinstance(element, ast.Name):
                if sref is not None:
                    self.env_structs[element.id] = sref
                else:
                    self.env[element.id] = frozenset(self._fields(src))
        elif isinstance(target, ast.Name):
            if sref is not None:
                self.env_structs[target.id] = sref
            else:
                self.env[target.id] = frozenset(self._fields(src))
        self._walk_body(stmt.body)
        self._walk_body(stmt.orelse)

    # -- structure references --------------------------------------------------

    def _struct_ref(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Subscript):
            return self._struct_ref(node.value)
        chain = astutil.attr_chain(node)
        if (
            chain is not None
            and len(chain) >= 2
            and chain[0] == self.self_name
            and chain[1] in self.struct_attrs
        ):
            return chain[1]
        if isinstance(node, ast.Name):
            return self.env_structs.get(node.id)
        return None

    # -- expressions -----------------------------------------------------------

    def _fields(self, node: ast.expr) -> Set[str]:
        if isinstance(node, ast.Constant):
            return {_T_CONST}
        if isinstance(node, ast.Name):
            return set(self._lookup(node.id))
        if isinstance(node, ast.Attribute):
            return self._attr(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript):
            return self._fields(node.value) | self._slice(node.slice)
        if isinstance(node, ast.BinOp):
            out = self._fields(node.left) | self._fields(node.right)
            return out
        if isinstance(node, ast.BoolOp):
            out: Set[str] = set()
            for v in node.values:
                out |= self._fields(v)
            return out
        if isinstance(node, ast.Compare):
            out = self._fields(node.left)
            for comp in node.comparators:
                out |= self._fields(comp)
            return out
        if isinstance(node, ast.UnaryOp):
            return self._fields(node.operand)
        if isinstance(node, ast.IfExp):
            self._fields(node.test)
            return self._fields(node.body) | self._fields(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for elt in node.elts:
                out |= self._fields(elt)
            return out or {_T_CONST}
        if isinstance(node, ast.JoinedStr):
            return {_T_CONST}
        return {_T_UNKNOWN}

    def _slice(self, node: ast.expr) -> Set[str]:
        if isinstance(node, ast.Slice):
            out: Set[str] = set()
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    out |= self._fields(part)
            return out or {_T_CONST}
        return self._fields(node)

    def _lookup(self, name: str) -> FrozenSet[str]:
        if name in self.env:
            return self.env[name]
        if name in self.env_structs:
            # The structure object itself (e.g. ``array.size``): its
            # geometry is configuration, not a key input.
            return frozenset({_T_CONST})
        if name in self.ns:
            value = self.ns[name]
            if isinstance(value, (int, float, str, bytes, bool, FlowKey)):
                return frozenset({_T_CONST})
            if inspect.ismodule(value) or isinstance(value, type):
                return frozenset({_T_CONST})
            if hasattr(value, "unpack_from"):  # struct.Struct instances
                return frozenset({_T_CONST})
            return frozenset({_T_UNKNOWN})
        if name in ("True", "False", "None"):
            return frozenset({_T_CONST})
        return frozenset({_T_UNKNOWN})

    def _attr(self, node: ast.Attribute) -> Set[str]:
        chain = astutil.attr_chain(node)
        if chain is not None:
            base = self._lookup(chain[0]) if chain[0] != self.self_name \
                else frozenset()
            if chain[0] == self.self_name:
                return self._self_attr(chain[1:])
            if _T_PKT in base:
                return self._pkt_attr(chain[1:])
            if base == frozenset({_T_CONST}):
                return {_T_CONST}
            return {_T_UNKNOWN}
        # Chain rooted in a call/subscript: derive from the base value
        # (e.g. ``pkt.flow_key().pack`` handled by the Call visitor; a
        # bare ``(a + b).attr`` inherits the base derivation).
        return self._fields(node.value)

    def _pkt_attr(self, rest: Sequence[str]) -> Set[str]:
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

    def _self_attr(self, rest: Sequence[str]) -> Set[str]:
        value: object = self.app
        for part in rest:
            try:
                value = getattr(value, part)
            except AttributeError:
                return {_T_UNKNOWN}
        if isinstance(value, (int, float, str, bytes, bool, FlowKey)):
            return {_T_CONST}
        return {_T_UNKNOWN}

    def _call(self, node: ast.Call) -> Set[str]:
        func = node.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
            recv = func.value
            sref = self._struct_ref(recv)
            if sref is not None and attr in _ACCESS_METHODS:
                if len(node.args) >= 2:
                    idx = frozenset(self._fields(node.args[1]))
                else:
                    idx = frozenset({_T_UNKNOWN})
                for extra in node.args[2:]:
                    self._fields(extra)
                self.accesses.append(
                    _Access(sref, attr, idx, self.file, node.lineno)
                )
                # The stored value is mutable state, not a key input.
                return {_T_UNKNOWN}
            if attr == "flow_key":
                return set(_FLOW_TUPLE)
            if attr in _PASS_THROUGH:
                return self._fields(recv)
            if attr in ("unpack", "unpack_from", "from_bytes"):
                return (
                    self._fields(node.args[0]) if node.args
                    else {_T_UNKNOWN}
                )
            if attr in _HASH_FUNCS:
                out: Set[str] = {_T_HASH}
                for a in node.args:
                    out |= self._fields(a)
                return out
            if (
                isinstance(recv, ast.Name)
                and recv.id == self.self_name
                and self.depth < 2
            ):
                target = getattr(self.app, attr, None)
                if callable(target):
                    return self._inline(target, node)
            for a in node.args:
                self._fields(a)
            return {_T_UNKNOWN}

        if isinstance(func, ast.Name):
            name = func.id
            if name in _HASH_FUNCS:
                out = {_T_HASH}
                for a in node.args:
                    out |= self._fields(a)
                return out
            if name in ("len", "isinstance", "range"):
                for a in node.args:
                    self._fields(a)
                return {_T_CONST}
            if name in ("min", "max", "abs", "int", "sum"):
                out = set()
                for a in node.args:
                    out |= self._fields(a)
                return out or {_T_CONST}
            resolved = self.ns.get(name)
            if resolved is FlowKey:
                out = set()
                for a in node.args:
                    out |= self._fields(a)
                return out or {_T_CONST}
            if callable(resolved) and self.depth < 2 and (
                hasattr(resolved, "__code__")
            ):
                return self._inline(resolved, node)
            for a in node.args:
                self._fields(a)
            return {_T_UNKNOWN}
        return {_T_UNKNOWN}

    def _inline(self, target, node: ast.Call) -> Set[str]:
        """One level of helper inlining: bind arg derivations to params,
        return the union of the helper's return derivations."""
        found = _find_def(target)
        if found is None:
            return {_T_UNKNOWN}
        fn_def, _path = found
        params = [a.arg for a in fn_def.args.args]
        if params and params[0] == "self" and (
            inspect.ismethod(target) or getattr(target, "__self__", None)
            is not None
        ):
            params = params[1:]
        bound: Dict[str, FrozenSet[str]] = {}
        for p, a in zip(params, node.args):
            bound[p] = frozenset(self._fields(a))
        for p in params[len(node.args):]:
            bound[p] = frozenset({_T_CONST})
        sub = _MethodScan(
            self.app, target, self.struct_attrs,
            bound_env=bound, depth=self.depth + 1,
        )
        if not sub.analyzable:
            return {_T_UNKNOWN}
        self.accesses.extend(sub.accesses)
        out: Set[str] = set()
        for fields, _line in sub.returns:
            out |= fields
        return out or {_T_UNKNOWN}


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


@dataclass
class _AppAnalysis:
    plan: Dict[str, object]
    effective: str
    structures: int


class _PartitionAnalyzer:
    """Runs the RS400-405/407 checks over one deployed app and builds
    its shard plan."""

    def __init__(self, dep, label: str,
                 report: Report, supp: SuppressionIndex,
                 root: Optional[str]) -> None:
        self.dep = dep
        self.label = label
        self.report = report
        self.supp = supp
        self.root = root
        switch = dep.switches[0]
        self.switch = switch
        self.app = dep.apps[switch.name]
        self.engine = dep.engines[switch.name]

    # -- diagnostics -----------------------------------------------------------

    def _rel(self, path: str, line_source: bool = True) -> str:
        rel = astutil.relpath(path, self.root)
        if line_source:
            sf = astutil.load(path)
            self.supp.scan(rel, source=sf.text if sf else "")
        return rel

    def _diag(self, rule_id: str, message: str, file: str, line: int) -> None:
        rule = RULES[rule_id]
        rel = self._rel(file)
        self.report.add(
            Diagnostic(rule.id, rule.severity, message, rel, line,
                       site=f"app={self.label}"),
            self.supp,
        )

    # -- analysis --------------------------------------------------------------

    def run(self) -> _AppAnalysis:
        app = self.app
        cls_file, cls_line = _class_site(app)

        declared = getattr(app, "shard_class", None)
        reason = getattr(app, "shard_reason", None)
        if declared is not None and declared not in CLASSES:
            self._diag(
                "RS404",
                f"{type(app).__name__}.shard_class is {declared!r}; the "
                f"partition-class lattice is {', '.join(CLASSES)}",
                cls_file, cls_line,
            )
            declared = None
        if declared == "global" and not reason:
            self._diag(
                "RS403",
                f"{type(app).__name__} declares shard_class = 'global' "
                "without a shard_reason; say why the state is cross-flow",
                cls_file, cls_line,
            )

        structs = _inventory(app)
        struct_attrs = {s.attr for s in structs}

        # Partition key inference.
        key_scan = _MethodScan(app, app.partition_key, struct_attrs)
        key_tokens: FrozenSet[str] = frozenset()
        for fields, _line in key_scan.returns:
            key_tokens |= fields
        if key_scan.analyzable and key_scan.returns:
            key_class, key_fields = _classify(key_tokens)
        else:
            key_class, key_fields = "unknown", frozenset()
        key_file, key_line = key_scan.file, key_scan.def_line
        if key_class == "unknown":
            self._diag(
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
        proc_scan = _MethodScan(app, app.process, struct_attrs)
        accesses = key_scan.accesses + proc_scan.accesses
        by_attr: Dict[str, List[_Access]] = {}
        for acc in accesses:
            if acc.struct is not None:
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
                    self._diag(
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
                self._diag(
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
            self._diag(
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
            self._diag(
                "RS405",
                f"{type(app).__name__} is inferred 'global' (its state "
                "is cross-flow) but declares no shard_class; annotate "
                "shard_class = 'global' with a shard_reason",
                cls_file, cls_line,
            )

        effective = declared if declared is not None else inferred
        plan = self._build_plan(
            declared, reason, effective,
            key_class, key_class_eff, key_fields, key_tokens,
            key_file, structs, struct_classes,
        )
        return _AppAnalysis(
            plan=plan, effective=effective,
            structures=len(plan["structures"]),  # type: ignore[arg-type]
        )

    # -- plan construction -----------------------------------------------------

    def _build_plan(self, declared, reason, effective,
                    key_class, key_class_eff, key_fields, key_tokens,
                    key_file, structs, struct_classes) -> Dict[str, object]:
        app = self.app
        engine = self.engine

        def site(file: str, definition: object) -> str:
            # ``path::QualName``, not a line: a plan must not drift
            # because code above the definition it cites moved.
            return (f"{astutil.relpath(file, self.root)}::"
                    f"{definition.__qualname__}")

        entries: List[Dict[str, object]] = []
        engine_class = "global" if effective == "global" else key_class_eff
        eng_site = site(_class_site(engine)[0], type(engine))
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

        cls_site = site(_class_site(app)[0], type(app))
        for s in structs:
            klass, fields, note = struct_classes[s.attr]
            final = "global" if effective == "global" else klass
            entry: Dict[str, object] = {
                "name": s.name,
                "kind": s.kind,
                "attr": s.attr,
                "partition_class": final,
                "key_fields": sorted(
                    f for f in fields if f in _HEADER_FIELDS
                    or f == _T_PAYLOAD
                ),
                "site": cls_site,
            }
            if note:
                entry["note"] = note
            if id(s.obj) in store_keys:
                entry["store_keys"] = store_keys[id(s.obj)]
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
    from repro.net.simulator import Simulator

    dep = deploy(Simulator(seed=0), factory)
    report = report if report is not None else Report()
    supp = suppressions if suppressions is not None else SuppressionIndex()
    name = label or getattr(
        dep.apps[dep.switches[0].name], "name", "app"
    )
    analyzer = _PartitionAnalyzer(dep, name, report, supp, root)
    analysis = analyzer.run()
    report.analyzed[f"partition:{name}"] = (
        f"{analysis.effective}; {analysis.structures} structure(s)"
    )
    return report, analysis.plan


def plan_json(plan: Dict[str, object]) -> str:
    """The canonical byte-deterministic serialization of a shard plan."""
    import json

    return json.dumps(plan, indent=2, sort_keys=True) + "\n"


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


# -- RS410-412: shard-hazard tree lints ---------------------------------------


def _in_shard_scope(path: str) -> bool:
    """True for files in the shard-boundary packages — and for files
    outside any ``repro`` package (fixtures, scratch trees), which are
    linted as-is."""
    parts = os.path.abspath(path).split(os.sep)
    if "repro" in parts:
        i = parts.index("repro")
        return len(parts) > i + 1 and parts[i + 1] in _SHARD_SCOPES
    return True


def _is_empty_mutable(node: ast.expr) -> bool:
    if isinstance(node, ast.List) and not node.elts:
        return True
    if isinstance(node, ast.Dict) and not node.keys:
        return True
    if isinstance(node, ast.Set) and not node.elts:
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "dict", "set")
        and not node.args and not node.keywords
    ):
        return True
    return False


def _check_module_globals(sf: astutil.SourceFile, rel: str,
                          report: Report, supp: SuppressionIndex) -> None:
    """RS410: mutable module-level accumulators and ``global`` rebinding."""
    rule = RULES["RS410"]
    for stmt in sf.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_empty_mutable(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                report.add(Diagnostic(
                    rule.id, rule.severity,
                    f"module-level mutable accumulator {target.id!r}: "
                    "per-process state that sharded workers would "
                    "populate divergently; move it onto a simulator- or "
                    "engine-owned object",
                    rel, stmt.lineno,
                ), supp)
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Global):
            report.add(Diagnostic(
                rule.id, rule.severity,
                f"function rebinds module global(s) "
                f"{', '.join(node.names)}: per-process simulation state "
                "that sharded workers would not share",
                rel, node.lineno,
            ), supp)


def _check_unpicklable(sf: astutil.SourceFile, rel: str,
                       report: Report, supp: SuppressionIndex) -> None:
    """RS411: lambdas stored where shard handoff would pickle them."""
    rule = RULES["RS411"]

    def flag(target_desc: str, line: int) -> None:
        report.add(Diagnostic(
            rule.id, rule.severity,
            f"lambda stored on {target_desc}: the owning object cannot "
            "cross a shard-process boundary (pickle rejects lambdas); "
            "use a named function or a bound method",
            rel, line,
        ), supp)

    for node in ast.walk(sf.tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if not isinstance(value, ast.Lambda):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Attribute):
                chain = astutil.attr_chain(target)
                flag(
                    f"instance attribute "
                    f"{'.'.join(chain) if chain else target.attr}",
                    node.lineno,
                )
    for stmt in sf.tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(
            stmt.value, ast.Lambda
        ):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    flag(f"module name {target.id!r}", stmt.lineno)


def _check_first_element_pick(sf: astutil.SourceFile, rel: str,
                              report: Report,
                              supp: SuppressionIndex) -> None:
    """RS412: ``next(iter(...))`` over an unordered container."""
    rule = RULES["RS412"]
    for node in ast.walk(sf.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "next"
            and node.args
        ):
            continue
        inner = node.args[0]
        if not (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id == "iter"
            and inner.args
        ):
            continue
        picked = inner.args[0]
        unordered = (
            isinstance(picked, (ast.Set, ast.SetComp, ast.DictComp))
            or (
                isinstance(picked, ast.Call)
                and isinstance(picked.func, ast.Attribute)
                and picked.func.attr in ("values", "keys", "items")
            )
            or (
                isinstance(picked, ast.Call)
                and isinstance(picked.func, ast.Name)
                and picked.func.id in ("set", "dict")
            )
        )
        if unordered:
            report.add(Diagnostic(
                rule.id, rule.severity,
                "next(iter(...)) picks the first element of an "
                "unordered container: shards filling it independently "
                "pick different elements; use sorted(...) or an "
                "explicit ordering",
                rel, node.lineno,
            ), supp)


def _check_entry_classes(report: Report, supp: SuppressionIndex,
                         root: Optional[str]) -> int:
    """RS406: every ENTRY_DEPS row declares a valid partition class."""
    from repro.fastpath import flowcache

    rule = RULES["RS406"]
    sf = astutil.load(flowcache.__file__)
    rel = astutil.relpath(
        sf.path if sf else flowcache.__file__, root
    )
    line = 1
    if sf is not None:
        supp.scan(rel, source=sf.text)
        for stmt in sf.tree.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ENTRY_DEPS"
                for t in stmt.targets
            ):
                line = stmt.lineno
                break
    entry_deps = flowcache.ENTRY_DEPS
    for kind in sorted(entry_deps):
        pc = getattr(entry_deps[kind], "partition_class", None)
        if pc not in ENTRY_CLASSES:
            report.add(Diagnostic(
                rule.id, rule.severity,
                f"ENTRY_DEPS[{kind!r}] declares partition class "
                f"{pc!r}; cohort replay needs one of "
                f"{', '.join(sorted(ENTRY_CLASSES))}",
                rel, line,
            ), supp)
    return len(entry_deps)


def verify_shard_hazards(
    paths: List[str],
    report: Optional[Report] = None,
    suppressions: Optional[SuppressionIndex] = None,
    root: Optional[str] = None,
) -> Report:
    """Run the RS410-412 shard-hazard lints over ``paths`` plus the
    RS406 entry-kind contract check."""
    report = report if report is not None else Report()
    supp = suppressions if suppressions is not None else SuppressionIndex()
    files = 0
    for path in paths:
        for filename in astutil.iter_py_files(path):
            if not _in_shard_scope(filename):
                continue
            sf = astutil.load(filename)
            if sf is None:
                continue
            files += 1
            rel = astutil.relpath(sf.path, root)
            supp.scan(rel, source=sf.text)
            _check_module_globals(sf, rel, report, supp)
            _check_unpicklable(sf, rel, report, supp)
            _check_first_element_pick(sf, rel, report, supp)
    kinds = _check_entry_classes(report, supp, root)
    report.analyzed["partition-hazards"] = (
        f"{files} file(s) in shard scope, {kinds} entry kind(s)"
    )
    return report
