"""Pass 1: the pipeline verifier (``RP1xx``), and the one analyzer of
deployed programs that passes 1 and 5 read.

Passes 1 and 5 (RS4xx, :mod:`repro.verify.partition_pass`) ask one
question of a deployed program: which structure does a packet touch,
indexed by what. :class:`Analyzer`, the one
:class:`~repro.verify.astutil.Walker` subclass, answers it with one
expression evaluator, one call evaluator and one inliner, and records
every structure access once, as an :class:`Access` (the structure, the
derivation of its index, the site). A stateful-ALU operation on a
register array is also an event on the path taking it: pass 1 reads the
events, pass 5 the derivations.

A value is the set of packet fields an expression derives from, plus
markers: ``const`` (the same for every packet), ``?``, the packet, its
pipeline context, and ``false`` for the literal ``False`` only (a path
whose block returns it ends the packet's traversal; a name bound to
``False`` is just a constant, as bindings are flow-insensitive).

Pass 1 enters at every control block's ``process`` and mirror pass
handler holding the packet *context*, and inlines only the calls handed
it (only those can touch a register). Pass 5 enters at the app's
``partition_key`` and ``process`` holding the *packet*, and inlines
every helper (:attr:`~repro.verify.astutil.Walker.follow_all`): it
needs their values. A lazy-snapshot ``update(ctx, idx, ...)`` is one
access to pass 5 and is inlined for pass 1, which counts the registers
inside it.

Pass 1 reads a *configured* :class:`~repro.switch.asic.SwitchASIC`
program the way the Tofino compiler reads a P4 program: per-packet
paths compose across blocks like
:meth:`~repro.switch.pipeline.Pipeline.run` composes blocks (one
returning ``False`` ends the traversal), so a double access split across
two blocks is found like one inside a single method. A loop over a
*collection* of arrays touches each member once, while a loop
re-touching one array is the per-packet loop P4 cannot express (RP102).
On top of the paths the pass checks the stage/ALU budget (RP110),
mirror-session wiring (RP122, RP123) and the resource declarations
against :data:`repro.switch.resources.CAPACITY` and the register arrays
the blocks instantiate (RP130, RP132, RP133).
"""

from __future__ import annotations

import ast
import inspect
import math
from types import FunctionType
from typing import (
    Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.core.snapshot import LazySnapshotArray
from repro.net.packet import FlowKey
from repro.switch.asic import SwitchASIC
from repro.switch.mirror import MirrorSession
from repro.switch.pipeline import describe_block
from repro.switch.registers import PairedRegisterArray, RegisterArray
from repro.switch.resources import CAPACITY
from repro.verify import astutil
from repro.verify.astutil import (
    CONST, MAX_DEPTH, RAISE, STATEFUL_TYPES, UNKNOWN, Frame, Path, Ref,
    Walker, attr_chain, class_site, combine, concrete, dedupe, first_member,
    merge, stateful_objects, worst,
)
from repro.verify.diagnostics import Report

# -- the analyzer: its value lattice ------------------------------------------

_T_PAYLOAD = "payload"  # parsed out of packet bytes
_T_HASH = "hash"        # passed through a compressing hash
_T_FALSE = "false"

HEADER_FIELDS = frozenset(
    {"ip.src", "ip.dst", "ip.proto", "l4.sport", "l4.dport", "vlan"}
)
_FLOW_TUPLE = HEADER_FIELDS - {"vlan"}

PKT = frozenset({"@pkt"})
CTX = frozenset({"@ctx"})
FALSE = frozenset({_T_FALSE})

#: Compressing hash functions: their output indexes a bounded slot
#: domain, so distinct keys can collide (flow_hash at best).
_HASH_FUNCS = frozenset({"sketch_hash", "crc32", "adler32", "hash"})
#: FlowKey methods that pass their receiver's derivation through.
_PASS_THROUGH = frozenset({"canonical", "reversed", "pack", "to_bytes"})
#: Builtins whose result derives from all of their arguments.
_DERIVING = frozenset({"min", "max", "abs", "int", "sum", "enumerate", "zip"})
#: Live values that are the same for every packet.
_CONST_TYPES = (int, float, str, bytes, bool, FlowKey)

#: Structure access methods; the index is argument 1 (after the context).
_ACCESS_METHODS = frozenset(
    {"update", "test_and_set", "access", "read", "write"})
#: Of those, a register array's stateful-ALU operations.
_REGISTER_OPS = ("access", "read", "write")
_REGISTER_TYPES = (RegisterArray, PairedRegisterArray)

#: Expression node -> the fields holding its operands, in evaluation order.
_CHILDREN = {
    ast.BinOp: ("left", "right"), ast.Compare: ("left", "comparators"),
    ast.UnaryOp: ("operand",), ast.Subscript: ("value", "slice"),
    ast.Tuple: ("elts",), ast.List: ("elts",), ast.Set: ("elts",),
    ast.Slice: ("lower", "upper", "step"), ast.Starred: ("value",),
}


#: Value -> the one effect list of an expression that records nothing.
#: Shared, as :meth:`~repro.verify.astutil.Walker.apply` allows: leaves
#: are most of what a walk evaluates.
_LEAVES: Dict[FrozenSet[str], List[Path]] = {}


def _leaf(value: FrozenSet[str]) -> List[Path]:
    effects = _LEAVES.get(value)
    if effects is None:
        effects = _LEAVES[value] = [Path({}, value)]
    return effects


_CONST_LEAF = _leaf(CONST)
_FALSE_LEAF = _leaf(FALSE)


def _valued(effects: List[Path], value: FrozenSet[str]) -> List[Path]:
    if len(effects) == 1 and not effects[0].c:
        return _LEAVES.get(value) or _leaf(value)
    return [Path(e.c, value, False, e.at) for e in effects]


def _pkt_attr(rest: List[str]) -> FrozenSet[str]:
    if not rest:
        return PKT
    if rest[0] == "payload":
        return frozenset({_T_PAYLOAD})
    if rest[0] == "vlan":
        return frozenset({"vlan"})
    dotted = ".".join(rest[:2])
    if dotted in HEADER_FIELDS:
        return frozenset({dotted})
    if rest[0] in ("ip", "l4") and len(rest) == 1:
        return PKT  # the header object itself (None checks)
    return UNKNOWN


class Access(NamedTuple):
    """One structure access the walk met."""

    #: The path event pass 1 counts: the register array (or member of a
    #: collection) of a stateful-ALU operation handed the context.
    key: Optional[Tuple]
    #: The app attribute owning the structure: pass 5's unit.
    attr: Optional[str]
    name: str
    index: FrozenSet[str]
    file: str
    line: int
    site: str


class DeployError(RuntimeError):
    """The program under verification raised while it was deployed."""


def deployed(deploy_fn, factory):
    """``deploy_fn(Simulator(seed=0), factory)``, with any failure raised
    as a :class:`DeployError` that names it."""
    from repro.net.simulator import Simulator

    try:
        return deploy_fn(Simulator(seed=0), factory)
    except Exception as exc:
        raise DeployError(f"{type(exc).__name__}: {exc}") from exc


class Analyzer(Walker):
    """One deployed program: a switch for pass 1, its app for pass 5."""

    def __init__(self, report: Optional[Report] = None,
                 root: Optional[str] = None, app=None) -> None:
        super().__init__(report if report is not None else Report(), root)
        self.app = app
        #: (attribute, structure) for every stateful object the app holds.
        self.structs = stateful_objects(app) if app is not None else []
        self._owner = {id(obj): attr for attr, obj in self.structs}
        #: Event key -> [its first Access, the widest use's width].
        self.arrays: Dict[Tuple, list] = {}
        #: Where a pass-5 walk (:meth:`app_paths`) appends its accesses.
        self.records: Optional[List[Access]] = None

    # -- the lattice ------------------------------------------------------------

    def join(self, values) -> FrozenSet[str]:
        out = set()
        for v in values:
            if v is not None and v is not RAISE:
                out |= v
        if _T_FALSE in out:
            out.discard(_T_FALSE)
            out |= CONST
        return frozenset(out) if out else UNKNOWN

    def value(self, effects: List[Path]) -> FrozenSet[str]:
        return self.join([e.ret for e in effects])

    def _lookup(self, name: str, frame: Frame) -> FrozenSet[str]:
        ref = frame.refs.get(name)
        if ref is not None and self._state_attr(ref) is not None:
            # A structure (e.g. ``array.size``): its geometry is
            # configuration, not a key input.
            return CONST
        if name in frame.vals:
            return frame.vals[name]  # type: ignore[return-value]
        if name in frame.ns:
            value = frame.ns[name]
            if isinstance(value, _CONST_TYPES) or inspect.ismodule(value) \
                    or isinstance(value, type) \
                    or hasattr(value, "unpack_from"):  # struct.Struct
                return CONST
            return UNKNOWN
        return CONST if name in ("True", "False", "None") else UNKNOWN

    def _attr(self, chain: List[str], node: ast.Attribute,
              frame: Frame) -> FrozenSet[str]:
        if frame.refs.get(chain[0]) is not None:
            # A live object: its configuration, or opaque.
            ref = self.resolve(node, frame)
            if ref is not None and isinstance(ref.exemplar, _CONST_TYPES):
                return CONST
            return UNKNOWN
        base = self._lookup(chain[0], frame)
        if "@pkt" in base:
            return _pkt_attr(chain[1:])
        return CONST if base == CONST else UNKNOWN

    def _state_attr(self, ref: Optional[Ref]) -> Optional[str]:
        """The app attribute owning the structure (or collection of
        structures) ``ref`` denotes."""
        obj = ref.exemplar if ref is not None else None
        while isinstance(obj, (list, tuple, dict)):
            obj = first_member(obj)
        return self._owner.get(id(obj))

    # -- expressions ----------------------------------------------------------

    def eval(self, node: Optional[ast.AST], frame: Frame) -> List[Path]:
        if node is None:
            return _CONST_LEAF
        kind = type(node)
        if kind is ast.Constant:
            return _FALSE_LEAF if node.value is False else _CONST_LEAF
        if kind is ast.Name:
            value = self._lookup(node.id, frame)
            return _LEAVES.get(value) or _leaf(value)
        if kind is ast.Call:
            return self._eval_call(node, frame)
        if kind is ast.Attribute:
            chain = attr_chain(node)
            if chain is None:  # rooted in a call/subscript: its derivation
                return self.eval(node.value, frame)
            return _leaf(self._attr(chain, node, frame))
        if kind is ast.Lambda:
            return _leaf(UNKNOWN)
        if kind is ast.IfExp:
            pre = self.eval(node.test, frame)
            return combine(pre, self.eval(node.body, frame)
                           + self.eval(node.orelse, frame))
        if kind is ast.BoolOp:
            effs = self.eval(node.values[0], frame)
            for operand in node.values[1:]:
                effs = dedupe(effs + combine(effs, self.eval(operand, frame)))
            return effs
        if kind in (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                    ast.DictComp):
            return self._eval_comp(node, frame)
        fields = _CHILDREN.get(kind)
        if fields is None:
            children = [c for c in ast.iter_child_nodes(node)
                        if isinstance(c, ast.expr)]
        else:
            children = []
            for name in fields:
                child = getattr(node, name)
                if type(child) is list:
                    children += child
                elif child is not None:
                    children.append(child)
        effs, vals = self._seq(children, frame)
        if kind in (ast.BinOp, ast.Compare, ast.UnaryOp, ast.Subscript):
            value = frozenset().union(*vals)
        elif kind in (ast.Tuple, ast.List, ast.Set, ast.Slice):
            value = frozenset().union(*vals) or CONST
        else:
            value = CONST if kind is ast.JoinedStr else UNKNOWN
        return _valued(effs, value)

    def _seq(self, nodes: List[ast.expr], frame: Frame
             ) -> Tuple[List[Path], List[FrozenSet[str]]]:
        """Evaluate ``nodes`` in order: (their effects in sequence, each
        one's value)."""
        effs: Optional[List[Path]] = None
        vals = []
        for n in nodes:
            e = self.eval(n, frame)
            v = e[0].ret if len(e) == 1 else None
            vals.append(v if v is not None and v is not RAISE
                        and _T_FALSE not in v else self.value(e))
            effs = e if effs is None or (len(effs) == 1 and not effs[0].c) \
                else combine(effs, e)
        return effs or _leaf(UNKNOWN), vals

    def _eval_comp(self, node, frame: Frame) -> List[Path]:
        gen = node.generators[0]
        pre = self.eval(gen.iter, frame)
        prefixes, empty = self.bind_loop(
            gen.target, gen.iter, self.value(pre), frame)
        if empty:
            return _valued(pre, UNKNOWN)
        frame.loops.append(prefixes)
        inner = _leaf(UNKNOWN)
        for g in node.generators[1:]:
            inner = combine(inner, self.eval(g.iter, frame))
        for g in node.generators:
            for cond in g.ifs:
                inner = combine(inner, self.eval(cond, frame))
        for part in ((node.key, node.value) if isinstance(node, ast.DictComp)
                     else (node.elt,)):
            inner = combine(inner, self.eval(part, frame))
        frame.loops.pop()
        once = worst(inner)
        self.loop_done(once.c, prefixes, frame, node)
        once.ret = UNKNOWN
        return combine(pre, [once])

    def loop_done(self, body: Dict, prefixes: Tuple, frame: Frame,
                  node: ast.AST) -> None:
        """RP102 for fixed-array accesses that reached the loop body only
        through an inlined callee (the per-access check can't see them)."""
        for key in body:
            if not any(key[: len(p)] == p for p in prefixes):
                self.diag(
                    "RP102",
                    f"register array {self.arrays[key][0].name!r} accessed on "
                    "every iteration of a per-packet loop (via a call made "
                    "inside the loop body)",
                    frame.file, node.lineno, once=("RP102", key),
                )

    # -- calls ------------------------------------------------------------------

    def _eval_call(self, node: ast.Call, frame: Frame) -> List[Path]:
        func = node.func
        method = func.attr if isinstance(func, ast.Attribute) else None
        recv = func.value if method else None
        first = [recv] if method and attr_chain(func) is None else []
        args = [a.value if isinstance(a, ast.Starred) else a
                for a in node.args]
        effs, vals = self._seq(
            first + args + [k.value for k in node.keywords], frame)
        argv = vals[len(first):len(first) + len(args)]
        kwv = vals[len(first) + len(args):]
        ctx = CTX in argv or CTX in kwv
        name = func.id if isinstance(func, ast.Name) else method
        if name == "PipelineContext":
            return _valued(effs, CTX)
        if isinstance(func, ast.Name):
            resolved = frame.ns.get(name)
            if ctx:
                self.diag(
                    "RP103",
                    f"packet context passed to free function "
                    f"'{name}'; its register accesses are unverifiable",
                    frame.file, node.lineno, once=True,
                )
            elif name in _HASH_FUNCS:
                return _valued(effs, frozenset({_T_HASH}).union(*argv))
            elif name in ("len", "isinstance", "range"):
                return _valued(effs, CONST)
            elif name in _DERIVING or resolved is FlowKey:
                return _valued(effs, frozenset().union(*argv) or CONST)
            elif isinstance(resolved, FunctionType) and self.follow_all:
                return self._inline(resolved, None, node, argv, kwv, effs,
                                    False, frame)
            return _valued(effs, UNKNOWN)
        if method is None or isinstance(recv, ast.Name) \
                and frame.vals.get(recv.id) == CTX:
            # ctx.emit / ctx.consume / ... — context bookkeeping, stateless.
            return _valued(effs, UNKNOWN)

        ref = self.resolve(recv, frame)
        obj = ref.exemplar if ref is not None else None
        if isinstance(obj, STATEFUL_TYPES) and method in _ACCESS_METHODS:
            key = ref.key if ctx and isinstance(  # type: ignore[union-attr]
                obj, _REGISTER_TYPES) and method in _REGISTER_OPS else None
            attr = self._state_attr(ref)
            if key is not None or attr is not None:
                name = getattr(obj, "name", type(obj).__name__)
                acc = Access(
                    key, attr, f"{name}[*]" if ref.member and ref.width > 1
                    else name, argv[1] if len(argv) > 1 else UNKNOWN,
                    frame.file, node.lineno, self.site)
                if self.records is not None:
                    self.records.append(acc)
            if key is not None:
                self._count(acc, ref, frame)  # type: ignore[arg-type]
                return combine(effs, [Path({key: 1}, UNKNOWN, False,
                                           {key: acc})])
            if not ctx or isinstance(obj, _REGISTER_TYPES):
                # The stored value is mutable state, not a key input.
                return _valued(effs, UNKNOWN)
            # A lazy-snapshot operation: inlined, its registers counted.
        elif isinstance(obj, MirrorSession):
            return _valued(effs, UNKNOWN)
        elif not ctx:
            if method == "flow_key":
                return _valued(effs, _FLOW_TUPLE)
            if method in _PASS_THROUGH:
                return _valued(effs, vals[0] if first
                               else self.value(self.eval(recv, frame)))
            if method in ("unpack", "unpack_from", "from_bytes"):
                return _valued(effs, argv[0] if argv else UNKNOWN)
            if method in _HASH_FUNCS:
                return _valued(effs, frozenset({_T_HASH}).union(*argv))

        fn = self.method(ref, method)
        if ctx and (ref is None or fn is None):
            self.diag(
                "RP103",
                "cannot statically resolve the receiver of "
                f"'{ast.unparse(func)}', which is passed the packet "
                "context: register accesses inside it are unverifiable"
                if ref is None else
                "no analyzable source for ctx-carrying call "
                f"'{ast.unparse(func)}'",
                frame.file, node.lineno, once=True,
            )
        elif fn is not None and (ctx or self.follow_all):
            return self._inline(fn, ref, node, argv, kwv, effs, ctx, frame)
        return _valued(effs, UNKNOWN)

    def _inline(self, fn: FunctionType, self_ref: Optional[Ref],
                node: ast.Call, argv, kwv, effs: List[Path], ctx: bool,
                frame: Frame) -> List[Path]:
        """Each parameter bound to its argument's value (unpassed ones are
        configuration), the callee's paths after the arguments'
        effects."""
        code = fn.__code__
        params = code.co_varnames[self_ref is not None:code.co_argcount]
        bound = dict.fromkeys(params, CONST)
        bound.update(zip(params, argv))
        for kw, v in zip(node.keywords, kwv):
            if kw.arg in bound:
                bound[kw.arg] = v
        return combine(effs, self._summary(
            fn, self_ref, bound, (frame.file, node.lineno) if ctx else None))

    def _summary(self, fn: FunctionType, self_ref: Optional[Ref],
                 bound: Optional[Dict], caller: Optional[Tuple[str, int]]
                 ) -> List[Path]:
        """``fn``'s paths, or one opaque path; an unreadable ``fn`` with
        a ``caller`` site (it was handed the packet context) is RP103."""
        paths = self.summarize(fn, self_ref, bound)
        if paths is not None:
            return paths
        if caller is not None:
            self.diag(
                "RP103",
                f"no analyzable source for '{fn.__qualname__}' (or it is "
                f"inlined more than {MAX_DEPTH} calls deep)",
                *caller, once=("RP103", id(fn.__code__)),
            )
        return [Path({}, UNKNOWN, True)]

    def _count(self, acc: Access, ref: Ref, frame: Frame) -> None:
        """Register a stateful-ALU operation; RP102 inside a per-packet
        loop."""
        entry = self.arrays.setdefault(acc.key, [acc, 1])
        # A loop and a subscript share a key, but only the loop touches
        # every member: the widest use sets the key's stage cost.
        entry[1] = max(entry[1], ref.width)
        if frame.loops and not any(
            acc.key[: len(p)] == p for p in frame.loops[-1]
        ):
            self.diag(
                "RP102",
                f"register array {entry[0].name!r} accessed inside "
                "a per-packet loop: every iteration is another "
                "stateful-ALU access to the same array (P4 has no "
                "per-packet loops)",
                frame.file, acc.line, once=("RP102", acc.key),
            )

    # -- entry points -----------------------------------------------------------

    def block_paths(self, block: object) -> List[Path]:
        """Pass 1's entry: a control block's ``process``, its second
        parameter the packet context."""
        self.site = f"block={describe_block(block)}"
        ref = concrete(block)
        fn = self.method(ref, "process")
        if fn is None:
            file, line = class_site(type(block))
            self.diag(
                "RP103",
                f"control block {describe_block(block)!r} has no analyzable "
                "process() method",
                file, line, site="", once=True,
            )
            return [Path({}, UNKNOWN, True)]
        code = fn.__code__
        bound = {code.co_varnames[1]: CTX} if code.co_argcount >= 2 else None
        return self._summary(fn, ref, bound,
                             (code.co_filename, code.co_firstlineno))

    def handler_paths(self, handler) -> Tuple[List[Path],
                                              Optional[Tuple[str, int]]]:
        """Pass 1's entry for a mirror pass handler: its paths and its
        def site."""
        self_obj = getattr(handler, "__self__", None)
        fn = getattr(handler, "__func__", handler)
        if not isinstance(fn, FunctionType):
            return [Path({}, UNKNOWN, True)], None
        self.site = "block=handler:" + (
            describe_block(self_obj) if self_obj is not None
            else fn.__qualname__
        )
        site = (fn.__code__.co_filename, fn.__code__.co_firstlineno)
        ref = concrete(self_obj) if self_obj is not None else None
        return self._summary(fn, ref, None, site), site

    def app_paths(self, method, records: List[Access]
                  ) -> Optional[List[Path]]:
        """Pass 5's entry: a packet-path method of the app, the packet in
        the parameter named ``pkt`` (or the first one), the rest
        configuration. Its accesses are appended to ``records`` (a
        memoized helper's only the first time it is walked)."""
        fn = getattr(method, "__func__", method)
        code = getattr(fn, "__code__", None)
        if code is None:
            return None
        params = code.co_varnames[1:code.co_argcount]
        carrier = "pkt" if "pkt" in params else (params[0] if params else "")
        bound = {p: PKT if p == carrier else CONST for p in params}
        self.follow_all, self.records = True, records
        try:
            return self.summarize(fn, concrete(self.app), bound)
        finally:
            self.follow_all, self.records = False, None


def app_analyzer(dep, report: Optional[Report] = None,
                 root: Optional[str] = None) -> Analyzer:
    """The analyzer of a deployed app's first switch and its app."""
    switch = dep.switches[0]
    return Analyzer(report, root, dep.apps[switch.name])


# -- pass 1 -------------------------------------------------------------------

#: Tofino-1 geometry (Table 2): 12 match-action stages, 4 stateful ALUs each.
STAGES = 12
ALUS_PER_STAGE = int(CAPACITY["meter_alus"] // STAGES)

#: def node -> the attribute calls in it (``ast.walk`` order).
_CALLS: Dict[int, List[ast.Call]] = {}


def _mirror_reach(an: Analyzer, self_obj: Optional[object], fn,
                  seen: Set[Tuple], use: Set[int], release: Set[int]) -> None:
    """Every ``mirror()``/``release()`` call the static call graph from
    ``fn`` reaches, by session id. The analyzer follows only calls handed
    the packet context, and the engine mirrors and releases from helpers
    that are not: this follows every call it resolves through ``self``."""
    fn = getattr(fn, "__func__", fn)
    found = astutil.find_def(fn) if isinstance(fn, FunctionType) else None
    if found is None:
        return
    node, sf = found
    calls = _CALLS.get(id(node))
    if calls is None:
        calls = _CALLS[id(node)] = [
            c for c in ast.walk(node)
            if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
        ]
    params = [a.arg for a in node.args.args]
    frame = Frame(sf.path, {})
    if self_obj is not None and params:
        frame.refs[params[0]] = concrete(self_obj)
    for call in calls:
        ref = an.resolve(call.func.value, frame)
        if ref is None:
            continue
        ex = ref.exemplar
        if isinstance(ex, MirrorSession):
            if call.func.attr == "mirror":
                use.add(ex.session_id)
            elif call.func.attr == "release":
                release.add(ex.session_id)
            continue
        m = an.method(ref, call.func.attr)
        if m is not None:
            k = (id(m.__code__), id(ex))
            if k not in seen:
                seen.add(k)
                _mirror_reach(an, ex, m, seen, use, release)


# -- resource checks ----------------------------------------------------------


def _components(blocks: Sequence[object]) -> List[object]:
    """Apps first (they own their structures), then blocks in order;
    each object once."""
    apps = [b.app for b in blocks if callable(
        getattr(getattr(b, "app", None), "resource_usage", None))]
    return list({id(c): c for c in [*apps, *blocks]}.values())


def _unclaimed_sram_bits(obj: object, claimed: Set[int]) -> float:
    """SRAM bits of the stateful objects ``obj`` instantiates and no
    earlier component claimed (a lazy-snapshot array is its three
    registers). TCAM is declared, never introspected: no modelled
    object occupies it."""
    bits = 0.0
    for _attr, s in astutil.stateful_objects(obj):
        parts = (
            (s.data, s.active_flag, s.last_updated)
            if isinstance(s, LazySnapshotArray) else (s,)
        )
        for part in parts:
            if id(part) in claimed:
                continue
            claimed.add(id(part))
            bits += part.sram_bits()
    return bits


def _check_resources(an: Analyzer, asic: SwitchASIC,
                     blocks: Sequence[object]) -> None:
    expected: Dict[str, float] = {}
    claimed: Set[int] = set()
    for comp in _components(blocks):
        usage_fn = getattr(comp, "resource_usage", None)
        usage = usage_fn() if callable(usage_fn) else {}
        file, line = astutil.class_site(type(comp))
        for k, v in usage.items():
            expected[k] = expected.get(k, 0.0) + float(v)
        declared = float(usage.get("sram_bits", 0.0))
        actual = _unclaimed_sram_bits(comp, claimed)
        if actual > declared + 1e-6:
            an.diag(
                "RP132",
                f"{type(comp).__name__} declares "
                f"{int(declared)} sram_bits but instantiates stateful "
                f"objects totalling {int(actual)} "
                f"(under-declared by {int(actual - declared)})",
                file, line, site="",
            )
    ledger = asic.resources.usage
    drift = sorted(
        k for k in set(ledger) | set(expected)
        if abs(ledger.get(k, 0.0) - expected.get(k, 0.0)) > 1e-6
    )
    anchor_file, anchor_line = (
        astutil.class_site(type(blocks[0])) if blocks
        else ("<unknown>", 1)
    )
    if drift:
        detail = ", ".join(
            f"{k}: ledger={ledger.get(k, 0.0):g} "
            f"declared={expected.get(k, 0.0):g}"
            for k in drift
        )
        an.diag(
            "RP133",
            f"switch resource ledger disagrees with the block/app "
            f"declarations ({detail}); register components via "
            "add_block() or resources.register()",
            anchor_file, anchor_line, site=f"switch={asic.name}",
        )
    for key in asic.resources.over_capacity():
        an.diag(
            "RP130",
            f"declared {key} usage {asic.resources.usage[key]:g} exceeds "
            f"chip capacity {CAPACITY[key]:g} "
            f"({asic.resources.percentage(key):.1f}%); the Tofino "
            "compiler would reject this program",
            anchor_file, anchor_line, site=f"switch={asic.name}",
        )


# -- the checks ---------------------------------------------------------------


def _owner_site(session: MirrorSession,
                blocks: Sequence[object]) -> Tuple[str, int]:
    """The class of the block holding ``session`` (else the first
    block's) — where its diagnostics point."""
    for b in blocks:
        if any(v is session for v in vars(b).values()):
            return astutil.class_site(type(b))
    return astutil.class_site(type(blocks[0])) if blocks else (
        "<unknown>", 1)


def check_asic(an: Analyzer, asic: SwitchASIC) -> None:
    """Every RP1xx check of one configured switch program."""
    blocks = list(asic.pipeline.blocks)

    block_paths: List[Tuple[object, List[Path]]] = []
    counted: Set[int] = set()
    for b in blocks:
        if id(b) not in counted:
            counted.add(id(b))
            block_paths.append((b, an.block_paths(b)))
            continue
        # RP105: the same instance twice is a cycle in the stage DAG.
        file, line = astutil.class_site(type(b))
        an.diag(
            "RP105",
            f"control block {describe_block(b)!r} appears more than "
            "once in the pipeline; block ordering must be an acyclic "
            "stage assignment",
            file, line, site=f"switch={asic.name}",
        )

    # Compose block paths the way Pipeline.run composes blocks.
    composed: List[Path] = [Path()]
    finals: List[Path] = []
    for _b, paths in block_paths:
        nxt: List[Path] = []
        for pre in composed:
            for p in paths:
                q = pre.fork()
                merge(q, p)
                (finals if p.ret in (FALSE, RAISE) else nxt).append(q)
        composed, finals = dedupe(nxt), dedupe(finals)
    finals = dedupe(finals + composed)

    # Mirror sessions: handlers are independent entry points (each
    # recirculation pass is its own packet context).
    sessions = sorted(asic._mirror_sessions.items())
    handler_sites: Dict[int, Optional[Tuple[str, int]]] = {}
    for sid, session in sessions:
        hpaths, handler_sites[sid] = an.handler_paths(session.handler)
        finals += [Path(dict(p.c), at=p.at) for p in hpaths]
    finals = dedupe(finals)

    # RP101 over every composed path, cited at the path's first access.
    flagged: Set[Tuple] = set()
    for path in finals:
        for key, cnt in path.c.items():
            if cnt >= 2 and key not in flagged:
                flagged.add(key)
                acc = path.at[key]
                an.diag(
                    "RP101",
                    f"register array {acc.name!r} can be "
                    f"accessed {cnt}x while processing one packet; "
                    "Tofino allows a single access per array per packet "
                    "(PAPER §5.4)",
                    acc.file, acc.line, site=f"{acc.site} pkt=*",
                )

    # RP110: stage budget. Each block needs ceil(worst-path stateful
    # ops / ALUs-per-stage) stages; blocks execute sequentially.
    total_stages = 0
    detail: List[str] = []
    for b, paths in block_paths:
        ops = max((sum(cnt * an.arrays[key][1] for key, cnt in p.c.items())
                   for p in paths), default=0)
        st = math.ceil(ops / ALUS_PER_STAGE) if ops else 0
        total_stages += st
        if st:
            detail.append(f"{describe_block(b)}={st}")
    if total_stages > STAGES:
        anchor_file, anchor_line = astutil.class_site(type(blocks[0]))
        an.diag(
            "RP110",
            f"pipeline needs {total_stages} stages "
            f"({', '.join(detail)}) but the chip has {STAGES} "
            f"(Table 2: {STAGES} stages x {ALUS_PER_STAGE} stateful "
            "ALUs)",
            anchor_file, anchor_line, site=f"switch={asic.name}",
        )

    # RP122/RP123: reachability of mirror()/release() call sites.
    use: Set[int] = set()
    release: Set[int] = set()
    seen: Set[Tuple] = set()
    for b in blocks:
        _mirror_reach(an, b, getattr(type(b), "process", None), seen, use,
                      release)
    for sid, session in sessions:
        _mirror_reach(an, getattr(session.handler, "__self__", None),
                      session.handler, seen, use, release)
    for sid, session in sessions:
        file, line = _owner_site(session, blocks)
        if sid not in use:
            an.diag(
                "RP122",
                f"mirror session {sid} is configured but no pipeline "
                "path can reach a mirror() call on it; it is dead "
                "resource",
                file, line, site=f"switch={asic.name}",
            )
        if sid not in release:
            hsite = handler_sites[sid]
            hfile, hline = hsite if hsite else (file, line)
            an.diag(
                "RP123",
                "nothing reachable from the pipeline or the pass "
                f"handler of mirror session {sid} calls release(): "
                "copies circulate forever and exhaust the packet buffer",
                hfile, hline, site=f"switch={asic.name}",
            )

    _check_resources(an, asic, blocks)


# -- public entry points ------------------------------------------------------


def verify_asic(
    asic: SwitchASIC,
    report: Optional[Report] = None,
    root: Optional[str] = None,
) -> Report:
    """Statically verify one configured switch program (read-only)."""
    an = Analyzer(report, root)
    check_asic(an, asic)
    return an.report


def check_app(an: Analyzer, dep, label: Optional[str] = None) -> None:
    """Pass 1 over a deployed app's switch program (with the replicator
    block ``deploy()`` adds for a bounded-inconsistency app)."""
    switch = dep.switches[0]
    app = dep.apps[switch.name]
    check_asic(an, switch)
    name = label or getattr(app, "name", type(app).__name__)
    an.report.analyzed[f"app:{name}"] = (
        f"{type(app).__name__} on {switch.name} "
        f"({len(switch.pipeline.blocks)} blocks, "
        f"{len(switch._mirror_sessions)} mirror session(s))"
    )


def verify_app(
    factory,
    label: Optional[str] = None,
    report: Optional[Report] = None,
    root: Optional[str] = None,
) -> Report:
    """Deploy ``factory()`` on a fresh simulated testbed and verify the
    resulting switch program."""
    from repro.deploy import deploy

    dep = deployed(deploy, factory)
    an = app_analyzer(dep, report, root)
    check_app(an, dep, label)
    return an.report

