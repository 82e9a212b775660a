"""Pass 1: the pipeline verifier.

Walks a *configured* :class:`~repro.switch.asic.SwitchASIC` program the
way the Tofino compiler walks a P4 program: every control block's
``process`` method (and every mirror-session pass handler) is summarized
symbolically from its AST, with attribute chains resolved against the
live block instances, producing the set of per-packet *paths* — each a
multiset of register-array accesses plus a verdict (stop the pipeline /
keep going). Paths compose across blocks exactly like
:meth:`~repro.switch.pipeline.Pipeline.run` composes them (a block
returning ``False`` ends the packet's traversal), so a double access
split across two blocks is found just like one inside a single method.

What makes this tractable is the codebase's own discipline, which the
pass both exploits and enforces:

* data-plane state is only touched through
  ``RegisterArray.access/read/write(ctx, ...)`` — the ``ctx`` argument
  *is* the packet, so only calls that receive the caller's ``ctx`` as a
  bare name can touch registers, and only those calls are inlined;
* loops over *collections of arrays* (``zip(self.state_regs, ...)``,
  ``enumerate(rows)``) touch each member once — modeled with
  member-scoped access keys — while a loop re-touching one fixed array
  is exactly the per-packet loop P4 cannot express (RP102).

On top of the path summaries the pass checks stage/ALU budgets (RP110),
mirror-session wiring (RP120–RP123) and the resource declarations
against both :data:`repro.switch.resources.CAPACITY` and the register
arrays the blocks actually instantiate (RP130–RP133).
"""

from __future__ import annotations

import ast
import math
import sys
from types import FunctionType
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.snapshot import LazySnapshotArray
from repro.switch.asic import SwitchASIC
from repro.switch.mirror import MirrorSession
from repro.switch.pipeline import describe_block
from repro.switch.registers import PairedRegisterArray, RegisterArray
from repro.switch.resources import CAPACITY
from repro.switch.tables import MatchTable
from repro.verify import astutil
from repro.verify.diagnostics import Diagnostic, Report, SuppressionIndex
from repro.verify.rules import RULES

#: Tofino-1 geometry (Table 2): 12 match-action stages, 4 stateful ALUs each.
STAGES = 12
ALUS_PER_STAGE = int(CAPACITY["meter_alus"] // STAGES)

_ACCESS_METHODS = ("access", "read", "write")
#: Control-plane register operations: legal from timers/CP handlers, an
#: RP150 error when reachable on a per-packet path.
_CP_METHODS = ("cp_read", "cp_write")
_REGISTER_TYPES = (RegisterArray, PairedRegisterArray)
#: Paths kept per function summary / per composition step. Beyond this the
#: analysis stays sound for RP101 (paths are only merged, never dropped
#: silently — see _dedupe) but could in principle lose precision; the cap
#: is far above anything the codebase produces.
_PATH_CAP = 256


class _Ref:
    """A resolved expression: a concrete live object, or one *member* of a
    collection of such objects (``self.state_regs[i]`` for unknown i).

    ``key`` is the access-key prefix for register arrays reached through
    this reference; ``width`` is how many physical arrays the reference
    stands for (1 for concrete objects and single-element selections,
    ``len(collection)`` per iterated collection level).
    """

    __slots__ = ("exemplar", "key", "width", "member")

    def __init__(self, exemplar: object, key: Tuple, width: int = 1,
                 member: bool = False) -> None:
        self.exemplar = exemplar
        self.key = key
        self.width = width
        self.member = member


def _concrete(obj: object) -> _Ref:
    return _Ref(obj, ("obj", id(obj)), 1, False)


class _Frame:
    """Per-function analysis state."""

    __slots__ = ("env", "ctx", "file", "block", "loops")

    def __init__(self, file: str, env: Dict[str, Optional[_Ref]],
                 ctx: Optional[str], block: str) -> None:
        self.env = env
        self.ctx = ctx
        self.file = file
        self.block = block
        #: Stack of active loops; each entry is the tuple of member-key
        #: prefixes bound by that loop (empty tuple: loop binds no
        #: collection of stateful objects).
        self.loops: List[Tuple[Tuple, ...]] = []


# -- path / effect plumbing ---------------------------------------------------
#
# A *path* is one way through a function: {"c": {access_key: count},
# "ret": "T"|"F"|"N"|"U"|"R", "term": bool}.  An *effect* is the same for an
# expression: {"c": counts, "v": value}.


def _new_path() -> Dict:
    return {"c": {}, "ret": None, "term": False}


def _fork(p: Dict) -> Dict:
    return {"c": dict(p["c"]), "ret": p["ret"], "term": p["term"]}


def _merge(into: Dict, counts: Dict) -> None:
    for k, v in counts.items():
        into[k] = into.get(k, 0) + v


def _freeze(counts: Dict) -> Tuple:
    return tuple(sorted(counts.items(), key=repr))


def _dedupe(paths: List[Dict]) -> List[Dict]:
    seen: Set[Tuple] = set()
    out: List[Dict] = []
    for p in paths:
        sig = (_freeze(p["c"]), p["ret"], p["term"])
        if sig not in seen:
            seen.add(sig)
            out.append(p)
        if len(out) >= _PATH_CAP:
            break
    return out


def _dedupe_counts(counts_list: List[Dict]) -> List[Dict]:
    seen: Set[Tuple] = set()
    out: List[Dict] = []
    for c in counts_list:
        sig = _freeze(c)
        if sig not in seen:
            seen.add(sig)
            out.append(c)
        if len(out) >= _PATH_CAP:
            break
    return out


def _combine(pre: List[Dict], post: List[Dict]) -> List[Dict]:
    """Cartesian sequencing of two effect lists; value taken from ``post``."""
    out: List[Dict] = []
    seen: Set[Tuple] = set()
    for a in pre:
        for b in post:
            c = dict(a["c"])
            _merge(c, b["c"])
            sig = (_freeze(c), b["v"])
            if sig not in seen:
                seen.add(sig)
                out.append({"c": c, "v": b["v"]})
            if len(out) >= _PATH_CAP:
                return out
    return out


def _const_value(node: Optional[ast.AST]) -> str:
    if isinstance(node, ast.Constant):
        if node.value is True:
            return "T"
        if node.value is False:
            return "F"
        if node.value is None:
            return "N"
    return "U"


def _is_pipelinecontext_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    return (isinstance(fn, ast.Name) and fn.id == "PipelineContext") or (
        isinstance(fn, ast.Attribute) and fn.attr == "PipelineContext"
    )


class _PipelineAnalyzer:
    """Analyzes one configured SwitchASIC."""

    def __init__(self, asic: SwitchASIC, report: Report,
                 suppressions: SuppressionIndex,
                 root: Optional[str] = None) -> None:
        self.asic = asic
        self.report = report
        self.supp = suppressions
        self.root = root
        # Access-key registry: display name, physical width, first site.
        self.key_names: Dict[Tuple, str] = {}
        self.key_widths: Dict[Tuple, int] = {}
        self.key_sites: Dict[Tuple, Tuple[str, int, str]] = {}
        self._summaries: Dict[Tuple, List[Dict]] = {}
        self._active: Set[Tuple] = set()
        self._defs: Dict[str, Dict[Tuple[str, int], ast.AST]] = {}
        self._once: Set[Tuple] = set()
        self._class_sites: Dict[type, Tuple[str, int]] = {}
        # Registers owned by in-switch store backends (RP150): serving a
        # packet from these via cp_read/cp_write would dodge the pipeline
        # accounting. The engine's OWN registers legitimately mix access()
        # with documented cp_* modeling shortcuts, so the rule is scoped
        # to store-backend state only.
        self._store_reg_ids: Set[int] = set()
        from repro.statestore.backend import StateStoreBackend

        for block in asic.pipeline.blocks:
            for value in vars(block).values():
                if isinstance(value, StateStoreBackend):
                    for attr in vars(value).values():
                        if isinstance(attr, _REGISTER_TYPES):
                            self._store_reg_ids.add(id(attr))
                        elif isinstance(attr, (list, tuple)):
                            self._store_reg_ids.update(
                                id(item) for item in attr
                                if isinstance(item, _REGISTER_TYPES)
                            )

    # -- diagnostics ----------------------------------------------------------

    def _rel(self, file: str) -> str:
        return astutil.relpath(file, self.root)

    def _diag(self, rule_id: str, message: str, file: str, line: int,
              site: str = "") -> None:
        r = RULES[rule_id]
        rel = self._rel(file)
        sf = astutil.load(file)
        self.supp.scan(rel, source=sf.text if sf else "")
        self.report.add(
            Diagnostic(r.id, r.severity, message, rel, line, site), self.supp
        )

    def _diag_once(self, rule_id: str, message: str, file: str, line: int,
                   site: str = "", dedupe: Optional[Tuple] = None) -> None:
        key = dedupe if dedupe is not None else (rule_id, file, line)
        if key in self._once:
            return
        self._once.add(key)
        self._diag(rule_id, message, file, line, site)

    # -- source lookup --------------------------------------------------------

    def _find_def(self, code, name: str):
        """The def node of a live function, in its original file (native
        line numbers, so diagnostics and noqa comments line up)."""
        file = code.co_filename
        index = self._defs.get(file)
        if index is None:
            index = {}
            sf = astutil.load(file)
            if sf is not None:
                # Scan suppressions for every file whose code we walk, so
                # unused noqa comments surface as QA002 at finalize time.
                self.supp.scan(self._rel(file), source=sf.text)
                for n in ast.walk(sf.tree):
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        index[(n.name, n.lineno)] = n
                        if n.decorator_list:
                            index[(n.name, n.decorator_list[0].lineno)] = n
            self._defs[file] = index
        node = index.get((name, code.co_firstlineno))
        sf = astutil.load(file)
        return node, sf

    def _class_site(self, obj: object) -> Tuple[str, int]:
        cls = type(obj)
        hit = self._class_sites.get(cls)
        if hit is not None:
            return hit
        site = ("<unknown>", 1)
        mod = sys.modules.get(cls.__module__)
        file = getattr(mod, "__file__", None)
        if file:
            sf = astutil.load(file)
            if sf is not None:
                site = (sf.path, 1)
                for n in ast.walk(sf.tree):
                    if isinstance(n, ast.ClassDef) and n.name == cls.__name__:
                        site = (sf.path, n.lineno)
                        break
        self._class_sites[cls] = site
        return site

    # -- reference resolution -------------------------------------------------

    def _resolve(self, node: ast.AST, frame: _Frame) -> Optional[_Ref]:
        if isinstance(node, ast.Name):
            return frame.env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value, frame)
            if base is None:
                return None
            try:
                obj = getattr(base.exemplar, node.attr)
            except Exception:
                return None
            if base.member:
                return _Ref(obj, base.key + ("." + node.attr,),
                            base.width, True)
            return _concrete(obj)
        if isinstance(node, ast.Subscript):
            base = self._resolve(node.value, frame)
            if base is None:
                return None
            container = base.exemplar
            sl = node.slice
            if isinstance(sl, ast.Constant) and not base.member:
                try:
                    return _concrete(container[sl.value])  # type: ignore[index]
                except Exception:
                    return None
            member = _first_member(container)
            if member is None:
                return None
            # Subscripting *selects* one member per packet: width unchanged.
            if base.member:
                return _Ref(member, base.key + ("[]",), base.width, True)
            return _Ref(member, ("sub", id(container)), base.width, True)
        return None

    def _iter_members(self, ref: Optional[_Ref]):
        """(member ref, statically-empty?) for iterating a resolved
        collection; (None, False) when the collection is opaque."""
        if ref is None:
            return None, False
        container = ref.exemplar
        if isinstance(container, (list, tuple)):
            if not container:
                return None, True
            if ref.member:
                return _Ref(container[0], ref.key + ("[*]",),
                            ref.width * len(container), True), False
            return _Ref(container[0], ("iter", id(container)),
                        len(container), True), False
        return None, False

    # -- access events --------------------------------------------------------

    def _access_event(self, ref: _Ref, node: ast.AST, frame: _Frame) -> Tuple:
        key = ref.key
        if key not in self.key_names:
            name = getattr(ref.exemplar, "name", type(ref.exemplar).__name__)
            if ref.member and ref.width > 1:
                name = f"{name}[*]"
            self.key_names[key] = name
            self.key_widths[key] = ref.width
            self.key_sites[key] = (frame.file, node.lineno, frame.block)
        if frame.loops:
            prefixes = frame.loops[-1]
            scoped = any(key[: len(p)] == p for p in prefixes)
            if not scoped:
                self._diag_once(
                    "RP102",
                    f"register array {self.key_names[key]!r} accessed inside "
                    "a per-packet loop: every iteration is another "
                    "stateful-ALU access to the same array (P4 has no "
                    "per-packet loops)",
                    frame.file, node.lineno,
                    site=f"block={frame.block}",
                    dedupe=("RP102", key),
                )
        return key

    def _check_loop_worst(self, worst: Dict, prefixes: Tuple,
                          frame: _Frame, node: ast.AST) -> None:
        """RP102 for fixed-array accesses that reached the loop body only
        through an inlined callee (the per-access check can't see them)."""
        for key in worst:
            if not any(key[: len(p)] == p for p in prefixes):
                self._diag_once(
                    "RP102",
                    f"register array {self.key_names[key]!r} accessed on "
                    "every iteration of a per-packet loop (via a call made "
                    "inside the loop body)",
                    frame.file, node.lineno,
                    site=f"block={frame.block}",
                    dedupe=("RP102", key),
                )

    # -- expression evaluation ------------------------------------------------

    def _eval(self, node: Optional[ast.AST], frame: _Frame) -> List[Dict]:
        if node is None or isinstance(
            node, (ast.Constant, ast.Name, ast.Lambda)
        ):
            return [{"c": {}, "v": _const_value(node)}]
        if isinstance(node, ast.Call):
            return self._eval_call(node, frame)
        if isinstance(node, ast.IfExp):
            pre = self._eval(node.test, frame)
            branches = self._eval(node.body, frame) + self._eval(
                node.orelse, frame
            )
            return _combine(pre, branches)
        if isinstance(node, ast.BoolOp):
            effs = self._eval(node.values[0], frame)
            for operand in node.values[1:]:
                nxt = self._eval(operand, frame)
                effs = _dedupe_effects(effs + _combine(effs, nxt))
            return effs
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._eval_comp(node, frame)
        effs: List[Dict] = [{"c": {}, "v": "U"}]
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                effs = _combine(effs, self._eval(child, frame))
            elif isinstance(child, ast.keyword):
                effs = _combine(effs, self._eval(child.value, frame))
        return effs

    def _call_passes_ctx(self, node: ast.Call, frame: _Frame) -> bool:
        if frame.ctx is None:
            return False
        for a in node.args:
            if isinstance(a, ast.Name) and a.id == frame.ctx:
                return True
        for kw in node.keywords:
            if isinstance(kw.value, ast.Name) and kw.value.id == frame.ctx:
                return True
        return False

    def _map_ctx_param(self, node: ast.Call, fn: FunctionType,
                       frame: _Frame) -> Optional[str]:
        code = fn.__code__
        params = code.co_varnames[: code.co_argcount]
        for i, a in enumerate(node.args):
            if isinstance(a, ast.Name) and a.id == frame.ctx:
                if i + 1 < len(params):
                    return params[i + 1]  # +1: self
                return None
        for kw in node.keywords:
            if isinstance(kw.value, ast.Name) and kw.value.id == frame.ctx:
                return kw.arg
        return None

    def _eval_call(self, node: ast.Call, frame: _Frame) -> List[Dict]:
        effs: List[Dict] = [{"c": {}, "v": "U"}]
        if isinstance(node.func, ast.Attribute) and astutil.attr_chain(
            node.func
        ) is None:
            effs = _combine(effs, self._eval(node.func.value, frame))
        for a in node.args:
            if isinstance(a, ast.Starred):
                a = a.value
            effs = _combine(effs, self._eval(a, frame))
        for kw in node.keywords:
            effs = _combine(effs, self._eval(kw.value, frame))

        if isinstance(node.func, ast.Attribute):
            base_node = node.func.value
            method = node.func.attr
            # ctx.emit / ctx.consume / ... — context bookkeeping, stateless.
            if (
                frame.ctx is not None
                and isinstance(base_node, ast.Name)
                and base_node.id == frame.ctx
            ):
                return effs
            base_ref = self._resolve(base_node, frame)
            if (
                base_ref is not None
                and isinstance(base_ref.exemplar, _REGISTER_TYPES)
                and method in _ACCESS_METHODS
                and self._call_passes_ctx(node, frame)
            ):
                key = self._access_event(base_ref, node, frame)
                out = []
                for e in effs:
                    c = dict(e["c"])
                    c[key] = c.get(key, 0) + 1
                    out.append({"c": c, "v": "U"})
                return out
            if (
                base_ref is not None
                and isinstance(base_ref.exemplar, _REGISTER_TYPES)
                and method in _CP_METHODS
                and id(base_ref.exemplar) in self._store_reg_ids
            ):
                self._diag_once(
                    "RP150",
                    f"store-backend register operation "
                    f"'{ast.unparse(node.func)}' is reachable on a "
                    "per-packet path; serve packets through access(ctx, "
                    "...) so the pipeline accounts the stateful-ALU use",
                    frame.file, node.lineno, site=f"block={frame.block}",
                )
                return effs
            if base_ref is not None and isinstance(
                base_ref.exemplar, MirrorSession
            ):
                return effs
            if self._call_passes_ctx(node, frame):
                if base_ref is None:
                    self._diag_once(
                        "RP103",
                        "cannot statically resolve the receiver of "
                        f"'{ast.unparse(node.func)}', which is passed the "
                        "packet context: register accesses inside it are "
                        "unverifiable",
                        frame.file, node.lineno, site=f"block={frame.block}",
                    )
                    return effs
                fn = getattr(type(base_ref.exemplar), method, None)
                fn = getattr(fn, "__func__", fn)
                if not isinstance(fn, FunctionType):
                    self._diag_once(
                        "RP103",
                        f"no analyzable source for ctx-carrying call "
                        f"'{ast.unparse(node.func)}'",
                        frame.file, node.lineno, site=f"block={frame.block}",
                    )
                    return effs
                ctx_param = self._map_ctx_param(node, fn, frame)
                self_ref = base_ref
                paths = self._summarize(
                    self_ref, fn, ctx_param, frame.block,
                    caller_site=(frame.file, node.lineno),
                )
                call_effs = [{"c": p["c"], "v": p["ret"]} for p in paths]
                return _combine(effs, call_effs)
            return effs
        if isinstance(node.func, ast.Name) and self._call_passes_ctx(
            node, frame
        ):
            self._diag_once(
                "RP103",
                f"packet context passed to free function "
                f"'{node.func.id}'; its register accesses are unverifiable",
                frame.file, node.lineno, site=f"block={frame.block}",
            )
        return effs

    def _eval_comp(self, node, frame: _Frame) -> List[Dict]:
        gen = node.generators[0]
        pre = self._eval(gen.iter, frame)
        prefixes, empty = self._bind_loop(gen.target, gen.iter, frame)
        if empty:
            return pre
        frame.loops.append(prefixes)
        inner: List[Dict] = [{"c": {}, "v": "U"}]
        for g in node.generators[1:]:
            inner = _combine(inner, self._eval(g.iter, frame))
        for g in node.generators:
            for cond in g.ifs:
                inner = _combine(inner, self._eval(cond, frame))
        if isinstance(node, ast.DictComp):
            inner = _combine(inner, self._eval(node.key, frame))
            inner = _combine(inner, self._eval(node.value, frame))
        else:
            inner = _combine(inner, self._eval(node.elt, frame))
        frame.loops.pop()
        worst: Dict = {}
        for e in inner:
            for k, v in e["c"].items():
                worst[k] = max(worst.get(k, 0), v)
        self._check_loop_worst(worst, prefixes, frame, node)
        return _combine(pre, [{"c": worst, "v": "U"}])

    # -- loop binding ---------------------------------------------------------

    def _bind_loop(self, target: ast.AST, iter_node: ast.AST,
                   frame: _Frame) -> Tuple[Tuple, bool]:
        empty = [False]

        def member_of(container_ref: Optional[_Ref]) -> Optional[_Ref]:
            m, e = self._iter_members(container_ref)
            if e:
                empty[0] = True
            return m

        tnodes: List[ast.AST] = (
            list(target.elts) if isinstance(target, ast.Tuple) else [target]
        )
        pairs: List[Tuple[ast.AST, Optional[_Ref]]] = []
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "zip"
        ):
            srcs = [self._resolve(a, frame) for a in iter_node.args]
            for t, s in zip(tnodes, srcs):
                pairs.append((t, member_of(s)))
        elif (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "enumerate"
            and iter_node.args
        ):
            src = self._resolve(iter_node.args[0], frame)
            if len(tnodes) == 2:
                pairs.append((tnodes[0], None))
                pairs.append((tnodes[1], member_of(src)))
            else:
                pairs.append((tnodes[0], None))
        elif (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr in ("values", "items")
            and not iter_node.args
        ):
            base = self._resolve(iter_node.func.value, frame)
            vals_ref: Optional[_Ref] = None
            if base is not None and isinstance(base.exemplar, dict):
                vals = list(base.exemplar.values())
                if not vals:
                    empty[0] = True
                elif base.member:
                    vals_ref = _Ref(vals[0], base.key + ("[*]",),
                                    base.width * len(vals), True)
                else:
                    vals_ref = _Ref(vals[0], ("iter", id(base.exemplar)),
                                    len(vals), True)
            if iter_node.func.attr == "items" and len(tnodes) == 2:
                pairs.append((tnodes[0], None))
                pairs.append((tnodes[1], vals_ref))
            else:
                pairs.append((tnodes[0], vals_ref))
        elif len(tnodes) == 1:
            pairs.append((tnodes[0], member_of(self._resolve(iter_node, frame))))
        else:
            pairs = [(t, None) for t in tnodes]

        for t, mref in pairs:
            if isinstance(t, ast.Name):
                frame.env[t.id] = mref
        prefixes = tuple(m.key for _, m in pairs if m is not None)
        return prefixes, empty[0]

    # -- statement walking ----------------------------------------------------

    def _apply(self, paths: List[Dict], effects: List[Dict]) -> List[Dict]:
        out = []
        for p in paths:
            for e in effects:
                q = _fork(p)
                _merge(q["c"], e["c"])
                out.append(q)
        return _dedupe(out)

    def _walk_body(self, stmts: Sequence[ast.stmt], paths: List[Dict],
                   frame: _Frame) -> List[Dict]:
        for stmt in stmts:
            live = [p for p in paths if not p["term"]]
            done = [p for p in paths if p["term"]]
            if not live:
                return paths
            paths = _dedupe(done + self._walk_stmt(stmt, live, frame))
        return paths

    def _walk_stmt(self, stmt: ast.stmt, live: List[Dict],
                   frame: _Frame) -> List[Dict]:
        if isinstance(stmt, ast.If):
            live = self._apply(live, self._eval(stmt.test, frame))
            body = self._walk_body(stmt.body, [_fork(p) for p in live], frame)
            orelse = self._walk_body(
                stmt.orelse, [_fork(p) for p in live], frame
            )
            return body + orelse
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                out = []
                for p in live:
                    q = _fork(p)
                    q["term"], q["ret"] = True, "N"
                    out.append(q)
                return out
            effs = self._eval(stmt.value, frame)
            const = _const_value(stmt.value)
            out = []
            for p in live:
                for e in effs:
                    q = _fork(p)
                    _merge(q["c"], e["c"])
                    q["term"] = True
                    q["ret"] = const if const != "U" else e["v"]
                    out.append(q)
            return out
        if isinstance(stmt, ast.Raise):
            live = self._apply(live, self._eval(stmt.exc, frame))
            for p in live:
                p["term"], p["ret"] = True, "R"
            return live
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return self._walk_assign(stmt, live, frame)
        if isinstance(stmt, ast.Expr):
            return self._apply(live, self._eval(stmt.value, frame))
        if isinstance(stmt, ast.For):
            return self._walk_for(stmt, live, frame)
        if isinstance(stmt, ast.While):
            return self._walk_while(stmt, live, frame)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                live = self._apply(live, self._eval(item.context_expr, frame))
            return self._walk_body(stmt.body, live, frame)
        if isinstance(stmt, ast.Try):
            body = self._walk_body(stmt.body, [_fork(p) for p in live], frame)
            out = list(body)
            for h in stmt.handlers:
                out += self._walk_body(
                    h.body, [_fork(p) for p in live], frame
                )
            if stmt.orelse:
                survivors = [p for p in body if not p["term"]]
                out = [p for p in out if p["term"] or p not in survivors]
                out += self._walk_body(
                    stmt.orelse, [_fork(p) for p in survivors], frame
                )
            if stmt.finalbody:
                out = self._walk_body(stmt.finalbody, out, frame)
            return out
        if isinstance(stmt, ast.Assert):
            return self._apply(live, self._eval(stmt.test, frame))
        # Nested defs, classes, imports, pass, break/continue, del, global:
        # no data-plane effect at packet time.
        return live

    def _walk_assign(self, stmt, live: List[Dict],
                     frame: _Frame) -> List[Dict]:
        value = stmt.value
        if value is not None:
            live = self._apply(live, self._eval(value, frame))
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        if isinstance(stmt, ast.AugAssign) or value is None:
            return live
        for t in targets:
            if isinstance(t, ast.Name):
                if _is_pipelinecontext_call(value):
                    if frame.ctx is None:
                        frame.ctx = t.id
                    elif frame.ctx != t.id:
                        self._diag_once(
                            "RP103",
                            "a second packet context is created in this "
                            "function; the analysis tracks only the first",
                            frame.file, stmt.lineno,
                            site=f"block={frame.block}",
                        )
                else:
                    frame.env[t.id] = self._resolve(value, frame)
            elif isinstance(t, ast.Tuple) and isinstance(value, ast.Tuple):
                for tn, vn in zip(t.elts, value.elts):
                    if isinstance(tn, ast.Name):
                        frame.env[tn.id] = self._resolve(vn, frame)
            elif isinstance(t, ast.Tuple):
                for tn in t.elts:
                    if isinstance(tn, ast.Name):
                        frame.env[tn.id] = None
        return live

    def _loop_out(self, live: List[Dict], body: List[Dict], worst: Dict,
                  orelse: Sequence[ast.stmt], frame: _Frame) -> List[Dict]:
        out: List[Dict] = []
        for p in live:
            cont = _fork(p)
            _merge(cont["c"], worst)
            out.append(cont)
            for bp in body:
                if bp["term"]:
                    t = _fork(p)
                    _merge(t["c"], worst)
                    t["term"], t["ret"] = True, bp["ret"]
                    out.append(t)
        out = _dedupe(out)
        if orelse:
            survivors = [p for p in out if not p["term"]]
            finished = [p for p in out if p["term"]]
            return finished + self._walk_body(list(orelse), survivors, frame)
        return out

    def _walk_for(self, stmt: ast.For, live: List[Dict],
                  frame: _Frame) -> List[Dict]:
        live = self._apply(live, self._eval(stmt.iter, frame))
        prefixes, empty = self._bind_loop(stmt.target, stmt.iter, frame)
        if empty:
            if stmt.orelse:
                return self._walk_body(list(stmt.orelse), live, frame)
            return live
        frame.loops.append(prefixes)
        body = self._walk_body(list(stmt.body), [_new_path()], frame)
        frame.loops.pop()
        worst: Dict = {}
        for bp in body:
            for k, v in bp["c"].items():
                worst[k] = max(worst.get(k, 0), v)
        self._check_loop_worst(worst, prefixes, frame, stmt)
        return self._loop_out(live, body, worst, stmt.orelse, frame)

    def _walk_while(self, stmt: ast.While, live: List[Dict],
                    frame: _Frame) -> List[Dict]:
        live = self._apply(live, self._eval(stmt.test, frame))
        frame.loops.append(())
        body = self._walk_body(list(stmt.body), [_new_path()], frame)
        frame.loops.pop()
        worst: Dict = {}
        for bp in body:
            for k, v in bp["c"].items():
                worst[k] = max(worst.get(k, 0), v)
        self._check_loop_worst(worst, (), frame, stmt)
        return self._loop_out(live, body, worst, stmt.orelse, frame)

    # -- function summaries ---------------------------------------------------

    def _summarize(self, self_ref: Optional[_Ref], fn: FunctionType,
                   ctx_param: Optional[str], block_desc: str,
                   caller_site: Optional[Tuple[str, int]] = None
                   ) -> List[Dict]:
        code = fn.__code__
        key = (id(code), self_ref.key if self_ref else None, ctx_param)
        hit = self._summaries.get(key)
        if hit is not None:
            return hit
        if key in self._active:  # recursion: unknown effect, stop unrolling
            return [{"c": {}, "ret": "U", "term": True}]
        self._active.add(key)
        try:
            node, sf = self._find_def(code, fn.__name__)
            if node is None or sf is None:
                where = caller_site or (code.co_filename, code.co_firstlineno)
                self._diag_once(
                    "RP103",
                    f"no analyzable source for '{fn.__qualname__}'",
                    where[0], where[1], site=f"block={block_desc}",
                )
                result = [{"c": {}, "ret": "U", "term": True}]
                self._summaries[key] = result
                return result
            params = [a.arg for a in node.args.args]
            env: Dict[str, Optional[_Ref]] = {}
            if self_ref is not None and params:
                env[params[0]] = self_ref
            frame = _Frame(sf.path, env, ctx_param, block_desc)
            paths = self._walk_body(list(node.body), [_new_path()], frame)
            for p in paths:
                if not p["term"]:
                    p["term"], p["ret"] = True, "N"
            paths = _dedupe(paths)
            self._summaries[key] = paths
            return paths
        finally:
            self._active.discard(key)

    def _entry_paths(self, block: object) -> List[Dict]:
        fn = getattr(type(block), "process", None)
        fn = getattr(fn, "__func__", fn)
        if not isinstance(fn, FunctionType):
            file, line = self._class_site(block)
            self._diag_once(
                "RP103",
                f"control block {describe_block(block)!r} has no analyzable "
                "process() method",
                file, line,
            )
            return [{"c": {}, "ret": "U", "term": True}]
        code = fn.__code__
        ctx_param = (
            code.co_varnames[1] if code.co_argcount >= 2 else None
        )
        return self._summarize(
            _concrete(block), fn, ctx_param, describe_block(block)
        )

    def _handler_paths(self, handler) -> Tuple[List[Dict], Optional[Tuple[str, int]]]:
        """Path summary of a mirror pass handler + its def site."""
        self_obj = getattr(handler, "__self__", None)
        fn = getattr(handler, "__func__", handler)
        if not isinstance(fn, FunctionType):
            return [{"c": {}, "ret": "U", "term": True}], None
        desc = (
            f"handler:{describe_block(self_obj)}"
            if self_obj is not None
            else f"handler:{fn.__qualname__}"
        )
        self_ref = _concrete(self_obj) if self_obj is not None else None
        paths = self._summarize(self_ref, fn, None, desc)
        return paths, (fn.__code__.co_filename, fn.__code__.co_firstlineno)

    # -- mirror reachability --------------------------------------------------

    def _mirror_reach(self, self_obj: Optional[object], fn,
                      seen: Set[Tuple], use: Set[int],
                      release: Set[int]) -> None:
        fn = getattr(fn, "__func__", fn)
        if not isinstance(fn, FunctionType):
            return
        node, sf = self._find_def(fn.__code__, fn.__name__)
        if node is None or sf is None:
            return
        params = [a.arg for a in node.args.args]
        env: Dict[str, Optional[_Ref]] = {}
        if self_obj is not None and params:
            env[params[0]] = _concrete(self_obj)
        frame = _Frame(sf.path, env, None, "")
        for call in ast.walk(node):
            if not isinstance(call, ast.Call) or not isinstance(
                call.func, ast.Attribute
            ):
                continue
            ref = self._resolve(call.func.value, frame)
            if ref is None:
                continue
            ex = ref.exemplar
            if isinstance(ex, MirrorSession):
                if call.func.attr == "mirror":
                    use.add(ex.session_id)
                elif call.func.attr == "release":
                    release.add(ex.session_id)
                continue
            m = getattr(type(ex), call.func.attr, None)
            m = getattr(m, "__func__", m)
            if isinstance(m, FunctionType):
                k = (id(m.__code__), id(ex))
                if k not in seen:
                    seen.add(k)
                    self._mirror_reach(ex, m, seen, use, release)

    # -- resource checks ------------------------------------------------------

    def _components(self, blocks: Sequence[object]) -> List[object]:
        """Apps first (they own their structures), then blocks in order."""
        comps: List[object] = []
        seen: Set[int] = set()
        for b in blocks:
            app = getattr(b, "app", None)
            if app is not None and callable(
                getattr(app, "resource_usage", None)
            ) and id(app) not in seen:
                seen.add(id(app))
                comps.append(app)
        for b in blocks:
            if id(b) not in seen:
                seen.add(id(b))
                comps.append(b)
        return comps

    def _introspect(self, obj: object, claimed: Set[int]) -> Dict[str, float]:
        found = {"sram_bits": 0.0, "tcam_bits": 0.0}

        def visit(value: object, depth: int) -> None:
            if depth > 4:
                return
            if isinstance(value, _REGISTER_TYPES):
                if id(value) not in claimed:
                    claimed.add(id(value))
                    found["sram_bits"] += value.sram_bits()
            elif isinstance(value, LazySnapshotArray):
                for part in (value.data, value.active_flag,
                             value.last_updated):
                    visit(part, depth)
            elif isinstance(value, MatchTable):
                if id(value) not in claimed:
                    claimed.add(id(value))
                    found["sram_bits"] += value.sram_bits()
                    found["tcam_bits"] += value.tcam_bits()
            elif isinstance(value, (list, tuple)):
                for v in value:
                    visit(v, depth + 1)
            elif isinstance(value, dict):
                for v in value.values():
                    visit(v, depth + 1)

        for v in vars(obj).values():
            visit(v, 1)
        return found

    def _check_resources(self, blocks: Sequence[object]) -> None:
        asic = self.asic
        comps = self._components(blocks)
        expected: Dict[str, float] = {}
        claimed: Set[int] = set()
        for comp in comps:
            usage_fn = getattr(comp, "resource_usage", None)
            usage = usage_fn() if callable(usage_fn) else {}
            file, line = self._class_site(comp)
            unknown = sorted(set(usage) - set(CAPACITY))
            if unknown:
                self._diag(
                    "RP131",
                    f"{type(comp).__name__} declares unknown resource(s) "
                    f"{', '.join(repr(u) for u in unknown)}; valid keys are "
                    f"the CAPACITY rows ({', '.join(sorted(CAPACITY))})",
                    file, line,
                )
            for k, v in usage.items():
                if k in CAPACITY:
                    expected[k] = expected.get(k, 0.0) + float(v)
            found = self._introspect(comp, claimed)
            for res in ("sram_bits", "tcam_bits"):
                declared = float(usage.get(res, 0.0))
                actual = found[res]
                if actual > declared + 1e-6:
                    self._diag(
                        "RP132",
                        f"{type(comp).__name__} declares "
                        f"{int(declared)} {res} but instantiates stateful "
                        f"objects totalling {int(actual)} "
                        f"(under-declared by {int(actual - declared)})",
                        file, line,
                    )
        ledger = asic.resources.usage
        drift = sorted(
            k for k in set(ledger) | set(expected)
            if abs(ledger.get(k, 0.0) - expected.get(k, 0.0)) > 1e-6
        )
        anchor_file, anchor_line = (
            self._class_site(blocks[0]) if blocks else ("<unknown>", 1)
        )
        if drift:
            detail = ", ".join(
                f"{k}: ledger={ledger.get(k, 0.0):g} "
                f"declared={expected.get(k, 0.0):g}"
                for k in drift
            )
            self._diag(
                "RP133",
                f"switch resource ledger disagrees with the block/app "
                f"declarations ({detail}); register components via "
                "add_block() or resources.register()",
                anchor_file, anchor_line, site=f"switch={asic.name}",
            )
        for key in asic.resources.over_capacity():
            self._diag(
                "RP130",
                f"declared {key} usage {asic.resources.usage[key]:g} exceeds "
                f"chip capacity {CAPACITY[key]:g} "
                f"({asic.resources.percentage(key):.1f}%); the Tofino "
                "compiler would reject this program",
                anchor_file, anchor_line, site=f"switch={asic.name}",
            )

    # -- top level ------------------------------------------------------------

    def run(self) -> None:
        asic = self.asic
        blocks = list(asic.pipeline.blocks)

        # RP105: the same block instance twice is a cycle in the stage DAG.
        counted: Set[int] = set()
        for b in blocks:
            if id(b) in counted:
                file, line = self._class_site(b)
                self._diag(
                    "RP105",
                    f"control block {describe_block(b)!r} appears more than "
                    "once in the pipeline; block ordering must be an acyclic "
                    "stage assignment",
                    file, line, site=f"switch={asic.name}",
                )
            counted.add(id(b))

        block_paths: List[Tuple[object, List[Dict]]] = []
        analyzed_ids: Set[int] = set()
        for b in blocks:
            if id(b) in analyzed_ids:
                continue
            analyzed_ids.add(id(b))
            block_paths.append((b, self._entry_paths(b)))

        # Compose block paths the way Pipeline.run composes blocks.
        composed: List[Dict] = [{}]
        finals: List[Dict] = []
        for _b, paths in block_paths:
            nxt: List[Dict] = []
            for pre in composed:
                for p in paths:
                    merged = dict(pre)
                    _merge(merged, p["c"])
                    if p["ret"] in ("F", "R"):
                        finals.append(merged)
                    else:
                        nxt.append(merged)
            composed = _dedupe_counts(nxt)
            finals = _dedupe_counts(finals)
        finals = _dedupe_counts(finals + composed)

        # Mirror sessions: handlers are independent entry points (each
        # recirculation pass is its own packet context).
        sessions = sorted(asic._mirror_sessions.items())
        handler_sites: Dict[int, Optional[Tuple[str, int]]] = {}
        handler_rets: Dict[int, List[Dict]] = {}
        for sid, session in sessions:
            owner = self._session_owner(session, blocks)
            file, line = self._class_site(owner) if owner else (
                blocks and self._class_site(blocks[0]) or ("<unknown>", 1)
            )
            if session.handler is None:
                self._diag(
                    "RP120",
                    f"mirror session {sid} has no pass handler: the first "
                    "mirrored copy would raise at runtime (§5.2 requires "
                    "the egress pipeline to process circulating copies)",
                    file, line, site=f"switch={asic.name}",
                )
            else:
                hpaths, hsite = self._handler_paths(session.handler)
                handler_sites[sid] = hsite
                handler_rets[sid] = hpaths
                for p in hpaths:
                    finals.append(dict(p["c"]))
            if session.truncate_to_bytes is None:
                self._diag(
                    "RP121",
                    f"mirror session {sid} circulates untruncated copies; "
                    "§5.2 truncates to the RedPlane header so full payloads "
                    "do not sit in packet buffer (Fig 15)",
                    file, line, site=f"switch={asic.name}",
                )
        finals = _dedupe_counts(finals)

        # RP101 over every composed path.
        flagged: Set[Tuple] = set()
        for counts in finals:
            for key, cnt in counts.items():
                if cnt >= 2 and key not in flagged:
                    flagged.add(key)
                    file, line, bdesc = self.key_sites[key]
                    self._diag(
                        "RP101",
                        f"register array {self.key_names[key]!r} can be "
                        f"accessed {cnt}x while processing one packet; "
                        "Tofino allows a single access per array per packet "
                        "(PAPER §5.4)",
                        file, line, site=f"block={bdesc} pkt=*",
                    )

        # RP110: stage budget. Each block needs ceil(worst-path stateful
        # ops / ALUs-per-stage) stages; blocks execute sequentially.
        total_stages = 0
        detail: List[str] = []
        for b, paths in block_paths:
            ops = 0
            for p in paths:
                p_ops = sum(
                    cnt * self.key_widths.get(key, 1)
                    for key, cnt in p["c"].items()
                )
                ops = max(ops, p_ops)
            st = math.ceil(ops / ALUS_PER_STAGE) if ops else 0
            total_stages += st
            if st:
                detail.append(f"{describe_block(b)}={st}")
        if total_stages > STAGES:
            anchor_file, anchor_line = self._class_site(blocks[0])
            self._diag(
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
            fn = getattr(type(b), "process", None)
            self._mirror_reach(b, fn, seen, use, release)
        for sid, session in sessions:
            if session.handler is not None:
                self._mirror_reach(
                    getattr(session.handler, "__self__", None),
                    session.handler, seen, use, release,
                )
        for sid, session in sessions:
            owner = self._session_owner(session, blocks)
            file, line = self._class_site(owner) if owner else ("<unknown>", 1)
            if sid not in use:
                self._diag(
                    "RP122",
                    f"mirror session {sid} is configured but no pipeline "
                    "path can reach a mirror() call on it; it is dead "
                    "resource",
                    file, line, site=f"switch={asic.name}",
                )
            if session.handler is not None:
                releasing = any(
                    p["ret"] == "F" for p in handler_rets.get(sid, [])
                ) or sid in release
                if not releasing:
                    hsite = handler_sites.get(sid)
                    hfile, hline = hsite if hsite else (file, line)
                    self._diag(
                        "RP123",
                        f"the pass handler of mirror session {sid} never "
                        "returns False and never calls release(): copies "
                        "circulate forever and exhaust the packet buffer",
                        hfile, hline, site=f"switch={asic.name}",
                    )

        self._check_resources(blocks)

    def _session_owner(self, session: MirrorSession,
                       blocks: Sequence[object]) -> Optional[object]:
        for b in blocks:
            for v in vars(b).values():
                if v is session:
                    return b
        if blocks:
            return blocks[0]
        return None


def _dedupe_effects(effs: List[Dict]) -> List[Dict]:
    seen: Set[Tuple] = set()
    out = []
    for e in effs:
        sig = (_freeze(e["c"]), e["v"])
        if sig not in seen:
            seen.add(sig)
            out.append(e)
        if len(out) >= _PATH_CAP:
            break
    return out


def _first_member(container: object) -> Optional[object]:
    if isinstance(container, (list, tuple)) and container:
        return container[0]
    if isinstance(container, dict) and container:
        return next(iter(container.values()))
    return None


# -- public entry points ------------------------------------------------------


def verify_asic(
    asic: SwitchASIC,
    report: Optional[Report] = None,
    suppressions: Optional[SuppressionIndex] = None,
    root: Optional[str] = None,
) -> Report:
    """Statically verify one configured switch program (read-only)."""
    report = report if report is not None else Report()
    suppressions = (
        suppressions if suppressions is not None else SuppressionIndex()
    )
    analyzer = _PipelineAnalyzer(asic, report, suppressions, root)
    analyzer.run()
    report.analyzed.setdefault(
        f"pipeline:{asic.name}",
        f"{len(asic.pipeline.blocks)} block(s), "
        f"{len(asic._mirror_sessions)} mirror session(s)",
    )
    return report


def verify_app(
    factory,
    label: Optional[str] = None,
    report: Optional[Report] = None,
    suppressions: Optional[SuppressionIndex] = None,
    root: Optional[str] = None,
) -> Report:
    """Deploy ``factory()`` on a fresh simulated testbed and verify the
    resulting switch program — for a bounded-inconsistency app that
    includes the replicator block ``deploy()`` put in the pipeline."""
    from repro.deploy import deploy
    from repro.net.simulator import Simulator

    dep = deploy(Simulator(seed=0), factory)
    switch = dep.switches[0]
    app = dep.apps[switch.name]
    report = report if report is not None else Report()
    verify_asic(switch, report=report, suppressions=suppressions, root=root)
    name = label or getattr(app, "name", type(app).__name__)
    report.analyzed[f"app:{name}"] = (
        f"{type(app).__name__} on {switch.name} "
        f"({len(switch.pipeline.blocks)} blocks)"
    )
    return report


def verify_netchain(
    report: Optional[Report] = None,
    suppressions: Optional[SuppressionIndex] = None,
    root: Optional[str] = None,
) -> Report:
    """Deploy the NetChain-style in-switch store and verify its ToR program.

    The store block serves every request from register arrays inside a
    single pipeline pass, so it is subject to the same static discipline
    as the apps: one access per array per packet (RP101), no per-packet
    loops over one array (RP102), stage budget (RP110), and — specific
    to in-switch stores — no control-plane register ops on the packet
    path (RP150).
    """
    from repro.apps.counter import SyncCounterApp
    from repro.deploy import deploy_netchain
    from repro.net.simulator import Simulator

    sim = Simulator(seed=0)
    dep = deploy_netchain(sim, SyncCounterApp)
    tor = dep.netchain.switch
    report = report if report is not None else Report()
    verify_asic(tor, report=report, suppressions=suppressions, root=root)
    report.analyzed["store:netchain"] = (
        f"NetChainStoreBlock on {tor.name} "
        f"({dep.netchain.backend.describe()})"
    )
    return report
