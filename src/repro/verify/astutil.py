"""Shared AST plumbing for the verifier passes.

Besides parsing and import tables, this module owns the one way the
verifier reads *live* code: :class:`Walker`, a symbolic interpreter of a
function body over the deployed object graph. Its one subclass,
:class:`repro.verify.pipeline_pass.Analyzer`, supplies the lattice and
the rules' records; passes 1 (RP1xx) and 5 (RS4xx) read them.
"""

from __future__ import annotations

import ast
import os
import sys
from types import FunctionType
from typing import (
    Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.core.snapshot import LazySnapshotArray
from repro.switch.registers import PairedRegisterArray, RegisterArray
from repro.verify.diagnostics import Report


class SourceFile:
    """One parsed source file: path, text, AST."""

    def __init__(self, path: str, text: str, tree: ast.Module) -> None:
        self.path = path
        self.text = text
        self.tree = tree


_CACHE: Dict[str, Optional[SourceFile]] = {}


def load(path: str) -> Optional[SourceFile]:
    """Parse ``path`` (cached); None when unreadable or syntactically bad."""
    path = os.path.abspath(path)
    if path in _CACHE:
        return _CACHE[path]
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        tree = ast.parse(text, filename=path)
        sf: Optional[SourceFile] = SourceFile(path, text, tree)
    except (OSError, SyntaxError):
        sf = None
    _CACHE[path] = sf
    return sf


def relpath(path: str, root: Optional[str] = None) -> str:
    """Repo-relative path for diagnostics (falls back to the input)."""
    base = root or os.getcwd()
    try:
        rel = os.path.relpath(path, base)
    except ValueError:  # pragma: no cover - windows drive mismatch
        return path
    return path if rel.startswith("..") else rel


def attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ['a', 'b', 'c']; None for anything fancier."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def assignment(stmt: ast.AST) -> Tuple[List[ast.expr], Optional[ast.expr]]:
    """(targets, value) of an assignment statement; ([], None) otherwise."""
    if isinstance(stmt, ast.Assign):
        return stmt.targets, stmt.value
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return [stmt.target], stmt.value
    return [], None


def iter_py_files(root: str) -> Iterator[str]:
    """All ``.py`` files under ``root`` (or ``root`` itself), sorted."""
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__" and not d.startswith(".")
        )
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def parsed_files(paths: Sequence[str], root: Optional[str]
                 ) -> Iterator[Tuple[SourceFile, str]]:
    """(parsed file, repo-relative path) for every ``.py`` file under
    ``paths``; unparseable files are skipped."""
    for path in paths:
        for filename in iter_py_files(path):
            sf = load(filename)
            if sf is not None:
                yield sf, relpath(sf.path, root)


class ImportTable:
    """What top-level module names mean inside one file.

    Tracks ``import x``/``import x as y``/``from x import y`` so a lint
    can tell that ``perf_counter()`` is ``time.perf_counter`` or that
    ``tt.PACKET_SEND`` refers to :mod:`repro.telemetry.trace`. The
    tree-lint walk fills it, one import statement at a time.
    """

    def __init__(self) -> None:
        #: local alias -> dotted module path ("tt" -> "repro.telemetry.trace")
        self.modules: Dict[str, str] = {}
        #: local name -> (module path, original name) for from-imports
        self.names: Dict[str, Tuple[str, str]] = {}

    def add(self, node: Union[ast.Import, ast.ImportFrom]) -> None:
        """Record one import statement, wherever in the file it sits."""
        if isinstance(node, ast.Import):
            for alias in node.names:
                self.modules[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif node.module:
            for alias in node.names:
                self.names[alias.asname or alias.name] = (
                    node.module, alias.name
                )

    def resolves_to(self, node: ast.AST, module: str, name: str) -> bool:
        """Does this expression denote ``module.name``?"""
        chain = attr_chain(node)
        if chain is None:
            return False
        if len(chain) >= 2:
            mod = self.modules.get(chain[0])
            # Match both "time" and dotted tails ("datetime.datetime.now").
            if mod is not None:
                dotted = ".".join([mod] + chain[1:-1])
                if dotted.endswith(module) and chain[-1] == name:
                    return True
            from_mod = self.names.get(chain[0])
            if from_mod is not None and len(chain) == 2:
                full = f"{from_mod[0]}.{from_mod[1]}"
                if full.endswith(module) and chain[-1] == name:
                    return True
        elif len(chain) == 1:
            from_mod = self.names.get(chain[0])
            if (
                from_mod is not None
                and from_mod[0].endswith(module)
                and from_mod[1] == name
            ):
                return True
        return False


# -- live definitions ---------------------------------------------------------

#: file -> (def name, line) -> def node; a decorated def is indexed under
#: both its ``def`` line and its first decorator's line.
_DEFS: Dict[str, Dict[Tuple[str, int], ast.AST]] = {}
#: file -> class name -> line of the first ``class`` statement so named.
_CLASSES: Dict[str, Dict[str, int]] = {}


def find_def(fn) -> Optional[Tuple[ast.FunctionDef, SourceFile]]:
    """The def node of a live function in its own file, matched exactly
    by its code object: name plus ``co_firstlineno`` (which is the first
    decorator's line for a decorated def). None for lambdas, builtins
    and code without a readable source."""
    code = getattr(getattr(fn, "__func__", fn), "__code__", None)
    sf = load(code.co_filename) if code is not None else None
    if sf is None:
        return None
    index = _DEFS.get(sf.path)
    if index is None:
        index = _DEFS[sf.path] = {}
        for n in ast.walk(sf.tree):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                index[(n.name, n.lineno)] = n
                if n.decorator_list:
                    index[(n.name, n.decorator_list[0].lineno)] = n
    node = index.get((code.co_name, code.co_firstlineno))
    return (node, sf) if node is not None else None  # type: ignore[return-value]


def class_file(cls: type) -> str:
    """The file that defines ``cls``, from its module; parses nothing."""
    mod = sys.modules.get(cls.__module__)
    return getattr(mod, "__file__", None) or "<unknown>"


def class_site(cls: type) -> Tuple[str, int]:
    """(file, ``class`` line) of ``cls`` from the cached AST of its
    module; line 1 when the module has no parseable source or the class
    was not written with a ``class`` statement."""
    sf = load(class_file(cls))
    if sf is None:
        return "<unknown>", 1
    lines = _CLASSES.get(sf.path)
    if lines is None:
        lines = _CLASSES[sf.path] = {}
        for n in ast.walk(sf.tree):
            if isinstance(n, ast.ClassDef):
                lines.setdefault(n.name, n.lineno)
    return sf.path, lines.get(cls.__name__, 1)


#: The objects that hold data-plane state.
STATEFUL_TYPES = (RegisterArray, PairedRegisterArray, LazySnapshotArray)


def stateful_objects(obj: object) -> List[Tuple[str, object]]:
    """(instance attribute, stateful object) for every register array
    and lazy-snapshot array reachable from ``obj``'s
    attributes through at most three levels of lists, tuples and dicts;
    each object once, in sorted attribute order."""
    out: List[Tuple[str, object]] = []
    seen: Set[int] = set()

    def visit(attr: str, value: object, depth: int) -> None:
        if depth > 4 or id(value) in seen:
            return
        if isinstance(value, STATEFUL_TYPES):
            seen.add(id(value))
            out.append((attr, value))
        elif isinstance(value, (list, tuple)):
            for v in value:
                visit(attr, v, depth + 1)
        elif isinstance(value, dict):
            for k in sorted(value, key=repr):
                visit(attr, value[k], depth + 1)

    attrs = vars(obj)
    for attr in sorted(attrs):
        visit(attr, attrs[attr], 1)
    return out


# -- the symbolic walker ------------------------------------------------------

#: The values the walker itself produces: a same-for-every-packet value
#: (loop counters, dict keys), an unknown one (recursion) and a raising
#: path's return. The rest of the lattice is the analyzer's
#: (:mod:`repro.verify.pipeline_pass`).
CONST = frozenset({"const"})
UNKNOWN = frozenset({"?"})
RAISE = frozenset({"raise"})


class Ref:
    """A resolved expression: a concrete live object, or one *member* of a
    collection of such objects (``self.state_regs[i]`` for unknown i).

    ``key`` names what the reference stands for (stable within one walk);
    ``width`` is how many physical objects it stands for (1 for concrete
    objects and single-element selections, ``len(collection)`` per
    iterated collection level).
    """

    __slots__ = ("exemplar", "key", "width", "member")

    def __init__(self, exemplar: object, key: Tuple, width: int = 1,
                 member: bool = False) -> None:
        self.exemplar = exemplar
        self.key = key
        self.width = width
        self.member = member


def concrete(obj: object) -> Ref:
    return Ref(obj, ("obj", id(obj)), 1, False)


def first_member(container: object) -> Optional[object]:
    if isinstance(container, (list, tuple)) and container:
        return container[0]
    if isinstance(container, dict) and container:
        return next(iter(container.values()))
    return None


def member_key(collection: Ref) -> Tuple:
    """The key every member of ``collection`` is accessed under, whether
    a loop binds it or a subscript selects it: the member a subscript
    selects is one of those a loop touches, so the two count together."""
    if collection.member:
        return collection.key + ("[*]",)
    return ("member", id(collection.exemplar))


class Frame:
    """One function being walked."""

    __slots__ = ("file", "ns", "refs", "vals", "loops")

    def __init__(self, file: str, ns: Dict[str, object]) -> None:
        self.file = file
        #: The function's module globals.
        self.ns = ns
        #: Local name -> the live object it denotes (None: not resolvable).
        self.refs: Dict[str, Optional[Ref]] = {}
        #: Local name -> its value in the lattice.
        self.vals: Dict[str, object] = {}
        #: Stack of active loops; each entry is the tuple of member-key
        #: prefixes that loop binds (empty: it iterates no collection).
        self.loops: List[Tuple[Tuple, ...]] = []


#: The ``at`` of a path with no events.
_NOWHERE: Dict = {}


class Path:
    """One way through a function: the multiset of events recorded on it
    (``c``: event key -> count), the site of each key's first event on
    it (``at``), its return value and whether it ended. ``at`` is never
    mutated, only replaced, so paths share it; it is not part of a
    path's :func:`dedupe` signature. A path built from another's ``c``
    takes its ``at`` too: RP101 cites ``at`` for each key counted twice.

    An expression's *effect* (one way it can evaluate) is a Path too,
    whose ``ret`` is the expression's value."""

    __slots__ = ("c", "ret", "term", "at")

    def __init__(self, c: Optional[Dict] = None, ret: object = None,
                 term: bool = False, at: Dict = _NOWHERE) -> None:
        self.c = {} if c is None else c
        self.ret = ret
        self.term = term
        self.at = at

    def fork(self) -> "Path":
        return Path(dict(self.c), self.ret, self.term, self.at)


#: Paths / effects kept per step. Beyond this the walk stops adding
#: alternatives; the cap is far above anything the codebase produces.
PATH_CAP = 256
#: Calls inlined inside one another before a call is left opaque.
MAX_DEPTH = 8


def merge(into: Path, then: Path) -> None:
    """Append ``then``'s events to ``into``; a key already on ``into``
    keeps its site."""
    c = into.c
    for k, v in then.c.items():
        c[k] = c.get(k, 0) + v
    if then.at:
        into.at = {**then.at, **into.at}


def _freeze(counts: Dict) -> Tuple:
    return tuple(sorted(counts.items(), key=repr))


def _signature(p: Path) -> Tuple:
    return (_freeze(p.c), p.ret, p.term)


def dedupe(paths: List[Path]) -> List[Path]:
    if len(paths) < 2:
        return paths
    seen: Set[Tuple] = set()
    out: List[Path] = []
    for p in paths:
        sig = _signature(p)
        if sig not in seen:
            seen.add(sig)
            out.append(p)
        if len(out) >= PATH_CAP:
            break
    return out


def combine(pre: List[Path], post: List[Path]) -> List[Path]:
    """Cartesian sequencing of two effect lists; value taken from ``post``."""
    out: List[Path] = []
    for a in pre:
        for b in post:
            q = Path(dict(a.c), b.ret, False, a.at)
            merge(q, b)
            out.append(q)
    return dedupe(out)


def worst(paths: Sequence[Path]) -> Path:
    """Pointwise maximum: one loop iteration's worst case."""
    out = Path()
    c = out.c
    for p in paths:
        for k, v in p.c.items():
            c[k] = max(c.get(k, 0), v)
        if p.at:
            out.at = {**p.at, **out.at}
    return out


class Walker:
    """Symbolic walk of live functions over the deployed object graph.

    The walker owns statement dispatch, name binding, live-name
    resolution, loop binding and the summary memo;
    :class:`~repro.verify.pipeline_pass.Analyzer` supplies :meth:`eval`
    (an expression's effects), :meth:`join`, :meth:`value` and
    :meth:`loop_done`. Every ``if`` forks the paths, every loop composes
    its worst iteration.
    """

    def __init__(self, report: Report, root: Optional[str]) -> None:
        self.report = report
        self.root = root
        #: The logical site diagnostics cite unless told otherwise.
        self.site = ""
        #: Inline every resolvable call, not only those the subclass
        #: singles out; part of the memo key.
        self.follow_all = False
        self._summaries: Dict[Tuple, Optional[List[Path]]] = {}
        self._active: Set[Tuple] = set()
        self._once: Set[Tuple] = set()

    # -- diagnostics -----------------------------------------------------------

    def diag(self, rule_id: str, message: str, file: str, line: int,
             site: Optional[str] = None,
             once: Union[bool, Tuple] = False) -> None:
        """File a diagnostic at ``file:line`` (made repo-relative) citing
        ``site``, by default :attr:`site`. With ``once``, only the first
        one per key is filed: the given tuple, or (rule, file, line) for
        ``once=True``."""
        if once:
            key = once if isinstance(once, tuple) else (rule_id, file, line)
            if key in self._once:
                return
            self._once.add(key)
        self.report.flag(rule_id, message, relpath(file, self.root), line,
                         self.site if site is None else site)

    # -- live-name resolution ----------------------------------------------------

    def resolve(self, node: Optional[ast.AST],
                frame: Frame) -> Optional[Ref]:
        if isinstance(node, ast.Name):
            return frame.refs.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value, frame)
            if base is None:
                return None
            try:
                obj = getattr(base.exemplar, node.attr)
            except Exception:
                return None
            if base.member:
                return Ref(obj, base.key + ("." + node.attr,),
                           base.width, True)
            return concrete(obj)
        if isinstance(node, ast.Subscript):
            base = self.resolve(node.value, frame)
            if base is None:
                return None
            container = base.exemplar
            sl = node.slice
            if isinstance(sl, ast.Constant) and not base.member:
                try:
                    return concrete(container[sl.value])  # type: ignore[index]
                except Exception:
                    return None
            member = first_member(container)
            if member is None:
                return None
            # Subscripting *selects* one member per packet: width
            # unchanged, key shared with a loop over the collection.
            return Ref(member, member_key(base), base.width, True)
        return None

    def method(self, ref: Optional[Ref], name: str) -> Optional[FunctionType]:
        """The function behind ``ref.name(...)`` when that is an ordinary
        method (not a static/class method or property) of its class."""
        if ref is None:
            return None
        for klass in type(ref.exemplar).__mro__:
            if name in klass.__dict__:
                fn = klass.__dict__[name]
                return fn if isinstance(fn, FunctionType) else None
        return None

    # -- loop binding -----------------------------------------------------------

    @staticmethod
    def _members(ref: Optional[Ref], values: Optional[List] = None):
        """(member ref, statically empty?) for iterating a resolved list,
        tuple, or (with ``values``) a dict's values."""
        if ref is None:
            return None, False
        items = values if values is not None else ref.exemplar
        if not isinstance(items, (list, tuple)):
            return None, False
        if not items:
            return None, True
        return Ref(items[0], member_key(ref), ref.width * len(items),
                   True), False

    def bind_loop(self, target: ast.AST, iter_node: ast.AST, value: object,
                  frame: Frame) -> Tuple[Tuple, bool]:
        """Bind a loop target over ``iter_node`` (whose lattice value is
        ``value``): members of a resolved collection bind to member refs,
        ``enumerate`` counters and ``.items()`` keys to :data:`CONST`.
        Returns (member-key prefixes the loop binds, statically empty?)."""
        tnodes = list(target.elts) if isinstance(target, ast.Tuple) else [
            target]
        call = iter_node if isinstance(iter_node, ast.Call) else None
        fname = call.func.id if call is not None and isinstance(
            call.func, ast.Name) else None
        fattr = call.func.attr if call is not None and isinstance(
            call.func, ast.Attribute) and not call.args else None
        pairs: List[Tuple[ast.AST, Optional[Ref], bool]] = []
        empty = False
        if fname == "zip":
            for t, a in zip(tnodes, call.args):  # type: ignore[union-attr]
                m, e = self._members(self.resolve(a, frame))
                empty = empty or e
                pairs.append((t, m, False))
        elif fname == "enumerate" and call.args and len(tnodes) == 2:  # type: ignore[union-attr]
            m, empty = self._members(self.resolve(call.args[0], frame))  # type: ignore[union-attr]
            pairs = [(tnodes[0], None, True), (tnodes[1], m, False)]
        elif fname == "enumerate":
            pairs = [(tnodes[0], None, True)]
        elif fattr in ("values", "items"):
            base = self.resolve(call.func.value, frame)  # type: ignore[union-attr]
            m = None
            if base is not None and isinstance(base.exemplar, dict):
                m, empty = self._members(base, list(base.exemplar.values()))
            if fattr == "items" and len(tnodes) == 2:
                pairs = [(tnodes[0], None, True), (tnodes[1], m, False)]
            else:
                pairs = [(tnodes[0], m, False)]
        elif len(tnodes) == 1:
            m, empty = self._members(self.resolve(iter_node, frame))
            pairs = [(tnodes[0], m, False)]
        else:
            pairs = [(t, None, False) for t in tnodes]
        for t, m, position in pairs:
            if isinstance(t, ast.Name):
                frame.refs[t.id] = m
                frame.vals[t.id] = CONST if position else value
        return tuple(m.key for _, m, _ in pairs if m is not None), empty

    # -- statements ---------------------------------------------------------------

    def apply(self, paths: List[Path], effects: List[Path]) -> List[Path]:
        """Each path followed by each effect. Effects are shared (the
        analyzer hands out one list per leaf value), so neither an effect
        nor its counts is ever mutated; paths are each walk's own."""
        if len(effects) == 1 and not effects[0].c:
            return paths
        out = []
        for p in paths:
            for e in effects:
                q = p.fork()
                merge(q, e)
                out.append(q)
        return dedupe(out)

    def walk_body(self, stmts: Sequence[ast.stmt], paths: List[Path],
                  frame: Frame) -> List[Path]:
        for stmt in stmts:
            live = [p for p in paths if not p.term]
            if not live:
                return paths
            done = [p for p in paths if p.term]
            paths = dedupe(done + self.walk_stmt(stmt, live, frame))
        return paths

    def walk_stmt(self, stmt: ast.stmt, live: List[Path],
                  frame: Frame) -> List[Path]:
        if isinstance(stmt, ast.If):
            live = self.apply(live, self.eval(stmt.test, frame))
            body = self.walk_body(stmt.body, [p.fork() for p in live], frame)
            return body + self.walk_body(
                stmt.orelse, [p.fork() for p in live], frame)
        if isinstance(stmt, ast.Return):
            value = stmt.value
            if value is None or (
                    isinstance(value, ast.Constant) and value.value is None):
                effs = [Path()]
            else:
                effs = self.eval(value, frame)
            out = combine(live, effs)  # each path ends with each value
            for q in out:
                q.term = True
            return out
        if isinstance(stmt, ast.Raise):
            live = self.apply(live, self.eval(stmt.exc, frame))
            for p in live:
                p.term, p.ret = True, RAISE
            return live
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return self._walk_assign(stmt, live, frame)
        if isinstance(stmt, (ast.Expr, ast.Assert)):
            node = stmt.value if isinstance(stmt, ast.Expr) else stmt.test
            return self.apply(live, self.eval(node, frame))
        if isinstance(stmt, ast.For):
            effs = self.eval(stmt.iter, frame)
            live = self.apply(live, effs)
            prefixes, empty = self.bind_loop(
                stmt.target, stmt.iter, self.value(effs), frame)
            if empty:
                return self.walk_body(stmt.orelse, live, frame)
            return self._walk_loop(stmt, prefixes, live, frame)
        if isinstance(stmt, ast.While):
            live = self.apply(live, self.eval(stmt.test, frame))
            return self._walk_loop(stmt, (), live, frame)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                live = self.apply(live, self.eval(item.context_expr, frame))
            return self.walk_body(stmt.body, live, frame)
        if isinstance(stmt, ast.Try):
            body = self.walk_body(stmt.body, [p.fork() for p in live], frame)
            out = list(body)
            for h in stmt.handlers:
                out += self.walk_body(h.body, [p.fork() for p in live], frame)
            if stmt.orelse:
                survivors = [p for p in body if not p.term]
                running = {_signature(p) for p in survivors}
                out = [p for p in out
                       if p.term or _signature(p) not in running]
                out += self.walk_body(
                    stmt.orelse, [p.fork() for p in survivors], frame)
            if stmt.finalbody:
                out = self.walk_body(stmt.finalbody, out, frame)
            return out
        # Nested defs, classes, imports, pass, break/continue, del, global:
        # no data-plane effect at packet time.
        return live

    def _walk_assign(self, stmt, live: List[Path],
                     frame: Frame) -> List[Path]:
        value = stmt.value
        if value is None:
            return live
        effs = self.eval(value, frame)
        live = self.apply(live, effs)
        v = self.value(effs)
        if isinstance(stmt, ast.AugAssign):
            t = stmt.target
            if isinstance(t, ast.Name):
                prev = frame.vals.get(t.id)
                frame.vals[t.id] = v if prev is None else self.join([prev, v])
            return live
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [
            stmt.target]
        for t in targets:
            if isinstance(t, ast.Name):
                frame.refs[t.id] = self.resolve(value, frame)
                frame.vals[t.id] = v
            elif isinstance(t, ast.Tuple):
                # Each name takes the value of the whole right-hand side;
                # a literal tuple on the right resolves element-wise.
                parts = value.elts if isinstance(value, ast.Tuple) else [
                    None] * len(t.elts)
                for tn, vn in zip(t.elts, parts):
                    if isinstance(tn, ast.Name):
                        frame.refs[tn.id] = self.resolve(vn, frame)
                        frame.vals[tn.id] = v
        return live

    def _walk_loop(self, stmt, prefixes: Tuple, live: List[Path],
                   frame: Frame) -> List[Path]:
        """One symbolic iteration, composed at its worst case; a ``return``
        inside the body ends the function after that worst iteration."""
        frame.loops.append(prefixes)
        body = self.walk_body(stmt.body, [Path()], frame)
        frame.loops.pop()
        once = worst(body)
        self.loop_done(once.c, prefixes, frame, stmt)
        out: List[Path] = []
        for p in live:
            cont = p.fork()
            merge(cont, once)
            out.append(cont)
            for bp in body:
                if bp.term:
                    t = p.fork()
                    merge(t, once)
                    t.term, t.ret = True, bp.ret
                    out.append(t)
        out = dedupe(out)
        if stmt.orelse:
            finished = [p for p in out if p.term]
            survivors = [p for p in out if not p.term]
            return finished + self.walk_body(stmt.orelse, survivors, frame)
        return out

    # -- helper inlining -----------------------------------------------------------

    def summarize(self, fn, self_ref: Optional[Ref] = None,
                  bindings: Optional[Dict[str, object]] = None
                  ) -> Optional[List[Path]]:
        """The terminated paths of ``fn``'s body, with its first parameter
        bound to ``self_ref`` and other parameters to ``bindings``
        values. Memoized per (code, receiver, bindings,
        :attr:`follow_all`); a recursive call is one opaque path
        returning :data:`UNKNOWN`. None when ``fn`` has no analyzable
        source or is nested deeper than :data:`MAX_DEPTH`."""
        fn = getattr(fn, "__func__", fn)
        bindings = bindings or {}
        key = (id(fn.__code__), self_ref.key if self_ref else None,
               tuple(sorted(bindings.items())), self.follow_all)
        if key in self._summaries:
            return self._summaries[key]
        if key in self._active:
            return [Path({}, UNKNOWN, True)]
        if len(self._active) >= MAX_DEPTH:
            return None
        found = find_def(fn)
        if found is None:
            self._summaries[key] = None
            return None
        node, sf = found
        frame = Frame(sf.path, getattr(fn, "__globals__", {}))
        params = [a.arg for a in node.args.args]
        if self_ref is not None and params:
            frame.refs[params[0]] = self_ref
        frame.vals.update(bindings)
        self._active.add(key)
        try:
            paths = self.walk_body(node.body, [Path()], frame)
        finally:
            self._active.discard(key)
        for p in paths:
            p.term = True
        paths = self._summaries[key] = dedupe(paths)
        return paths
