"""Pass 2: the determinism linter, and the driver of every tree lint.

A *tree lint* is a rule family checked by reading source files rather
than deployed apps. :func:`verify_tree` runs all three of them: it parses
each ``.py`` file once and walks its AST once with :class:`_FileLint`,
which hands every node to the checks of each family whose scope covers
the file:

* **RD201-204** determinism (this module), on every file, but RD201 not
  on the telemetry stopwatch (``telemetry/timers.py``);
* **RT301-306** telemetry schema (:mod:`repro.verify.telemetry_pass`),
  on every file but the telemetry machinery itself; RT310's span
  pairing runs once after the walk, across the file set;
* **RP140-141** fast-path replay (:mod:`repro.verify.fastpath_pass`):
  RP140 inside the fast-path package, RP141 on every class.

The scopes are decided once per file, by :func:`_scope`, from its
repo-relative path, so where the checkout lives never changes what is
linted.

The reproduction's headline claim is bit-identical figures: every run of
an experiment config must produce the same packets, the same counters,
the same JSON. That only holds if simulation code never consults sources
the simulator does not control. The determinism rules flag the four ways
nondeterminism has actually crept into discrete-event simulators:

* **RD201** — wall-clock reads (``time.time()``, ``datetime.now()``,
  ``time.perf_counter()``): simulated time is :attr:`Simulator.now`;
  host time differs per run. The telemetry stopwatch is the one module
  out of its scope: its readings never reach a figure.
* **RD202** — unseeded randomness: module-level ``random.*`` calls use
  the shared global RNG (seeded by the OS), and ``random.Random()``
  without a seed argument is the same thing in a trenchcoat. Every RNG
  must derive from the experiment seed.
* **RD203** — iteration over sets (a loop, a comprehension, or
  ``iter()``, as in ``next(iter(s))``): since hash randomization
  (PYTHONHASHSEED), set order varies between *processes*, so any set
  iteration whose order reaches output is a heisenbug. Iterate
  ``sorted(...)`` instead.
* **RD204** — ``id()`` used as a sort key or tie-break: CPython ids are
  addresses; they vary per run and per allocation order.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple, Union

from repro.verify import astutil
from repro.verify.diagnostics import Report
from repro.verify.fastpath_pass import check_app_class, check_replay
from repro.verify.telemetry_pass import TelemetryLint, check_span_pairing

#: (module suffix, attribute) pairs that read the host clock.
_WALL_CLOCKS: Tuple[Tuple[str, str], ...] = (
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
)

#: Module-level :mod:`random` functions driven by the global (OS-seeded) RNG.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "expovariate", "getrandbits", "betavariate",
    "triangular", "vonmisesvariate", "paretovariate", "normalvariate",
})

_SORTERS = frozenset({"sorted", "min", "max"})

#: Builtins whose result does not depend on iteration order: a set (or a
#: comprehension over one) consumed *directly* by these is deterministic.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "min", "max", "any", "all", "sum", "len", "set", "frozenset",
})


#: The one module RD201 does not cover, as its path below ``repro``.
_STOPWATCH = "telemetry/timers.py"


def _scope(rel: str) -> str:
    """The scope component of one file.

    It is the one after the last ``repro`` directory of the file's
    repo-relative path: a package (``core``) or a top-level module
    (``scenarios.py``). A file outside any ``repro`` package (a test, a
    fixture tree) is scoped by its parent directory's name.
    """
    parts = rel.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1]
    return parts[-2] if len(parts) > 1 else ""


def _below_repro(rel: str) -> str:
    """``rel`` below its last ``repro`` directory; all of it for a file
    outside any ``repro`` package."""
    parts = rel.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i + 1:])
    return "/".join(parts)


class _FileLint(ast.NodeVisitor):
    """One walk over one file, dispatching each node to the checks of
    every tree-lint family whose scope covers the file.

    Checks that read the import table (RD201/202/204, RT301-306) run on
    the collected calls after the walk, since an import may follow its
    use (function-local imports, ``TYPE_CHECKING`` blocks).
    """

    def __init__(self, sf: astutil.SourceFile, rel: str,
                 report: Report) -> None:
        self.sf = sf
        self.rel = rel
        self.report = report
        scope = _scope(rel)
        self.in_fastpath = scope == "fastpath"
        self.wall_clock_ok = _below_repro(rel) == _STOPWATCH
        self.imports = astutil.ImportTable()
        #: RT301-306 state; None for the telemetry subsystem, which
        #: defines the machinery: its method bodies are not emit sites.
        self.telemetry = (
            None if scope == "telemetry"
            else TelemetryLint(self.imports, rel, report)
        )
        self.assigns: List[ast.Assign] = []
        self.calls: List[ast.Call] = []
        #: Node ids of expressions consumed by order-insensitive builtins
        #: (``sorted(x - y)``, ``any(t in s for ...)``): exempt from RD203.
        self._sanctioned: set = set()
        #: Name of the fast-path ``replay_*`` function being walked.
        self._replay: Optional[str] = None
        self.replays = 0
        self.app_classes = 0

    def flag(self, rule_id: str, message: str, line: int) -> None:
        self.report.flag(rule_id, message, self.rel, line)

    def run(self) -> None:
        self.visit(self.sf.tree)
        for node in self.calls:
            self._check_call(node)
        if self.telemetry is not None:
            self.telemetry.run(self.assigns, self.calls)

    # -- RD201/202/204: calls, once the import table is complete --------------

    def _is_wall_clock(self, func: ast.AST) -> Optional[str]:
        for module, name in _WALL_CLOCKS:
            if self.imports.resolves_to(func, module, name):
                return f"{module}.{name}"
        return None

    def _is_unseeded_random(self, node: ast.Call) -> Optional[str]:
        func = node.func
        # random.Random() / random.SystemRandom() with no seed argument.
        for ctor in ("Random", "SystemRandom"):
            if self.imports.resolves_to(func, "random", ctor):
                if ctor == "SystemRandom":
                    return "random.SystemRandom (OS entropy)"
                if not node.args and not node.keywords:
                    return "random.Random() without a seed"
                return None
        chain = astutil.attr_chain(func)
        if chain is None:
            return None
        # Module-level random.* — the global RNG.
        if len(chain) == 2 and self.imports.modules.get(chain[0]) == "random":
            if chain[1] in _GLOBAL_RANDOM_FNS:
                return f"random.{chain[1]} (global RNG)"
        if len(chain) == 1:
            origin = self.imports.names.get(chain[0])
            if origin == ("random", chain[0]) and chain[0] in _GLOBAL_RANDOM_FNS:
                return f"random.{chain[0]} (global RNG)"
        return None

    def _key_uses_id(self, key_expr: ast.AST) -> bool:
        for sub in ast.walk(key_expr):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
                and "id" not in self.imports.names
                and "id" not in self.imports.modules
            ):
                return True
        return False

    def _check_call(self, node: ast.Call) -> None:
        clock = None if self.wall_clock_ok else self._is_wall_clock(node.func)
        if clock is not None:
            self.flag(
                "RD201",
                f"wall-clock read {clock}(): simulation code must use the "
                "simulator's virtual clock (Simulator.now) so runs are "
                "reproducible",
                node.lineno,
            )
        unseeded = self._is_unseeded_random(node)
        if unseeded is not None:
            self.flag(
                "RD202",
                f"unseeded randomness via {unseeded}: derive every RNG "
                "from the experiment seed (random.Random(seed))",
                node.lineno,
            )
        func = node.func
        if isinstance(func, ast.Name) and func.id in _SORTERS:
            what = f"a {func.id}() key"
        elif isinstance(func, ast.Attribute) and func.attr == "sort":
            what = "a .sort() key"
        else:
            return
        for kw in node.keywords:
            if kw.arg == "key" and self._key_uses_id(kw.value):
                self.flag(
                    "RD204",
                    f"id() used as {what}: CPython ids are memory "
                    "addresses and differ between runs; key on a stable "
                    "attribute instead",
                    kw.value.lineno,
                )

    # -- RD203 ----------------------------------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
        ):
            # set algebra: a & b, a | b, a - b on sets — only flagged when
            # an operand is itself syntactically a set.
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _check_set_iteration(self, iter_node: ast.AST) -> None:
        if id(iter_node) in self._sanctioned:
            return
        if self._is_set_expr(iter_node):
            self.flag(
                "RD203",
                "iteration over a set: element order depends on "
                "PYTHONHASHSEED and varies between runs; wrap in sorted()",
                iter_node.lineno,
            )

    # -- the walk -------------------------------------------------------------

    def generic_visit(self, node: ast.AST) -> None:
        if self._replay is not None:
            check_replay(self._replay, node, self.rel, self.report)
        super().generic_visit(node)

    def visit_Import(self, node: Union[ast.Import, ast.ImportFrom]) -> None:
        self.imports.add(node)
        self.generic_visit(node)

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node: ast.Assign) -> None:
        self.assigns.append(node)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer = self._replay
        if self.in_fastpath and node.name.startswith("replay_"):
            self.replays += 1
            self._replay = node.name
        self.generic_visit(node)
        self._replay = outer

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if check_app_class(node, self.rel, self.report):
            self.app_classes += 1
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append(node)
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_INSENSITIVE:
            for a in node.args:
                self._sanctioned.add(id(a))
                if isinstance(
                    a, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
                ):
                    for gen in a.generators:
                        self._sanctioned.add(id(gen.iter))
        if isinstance(func, ast.Name) and func.id == "iter" and node.args:
            self._check_set_iteration(node.args[0])
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comp(
        self, node: Union[ast.ListComp, ast.DictComp, ast.GeneratorExp]
    ) -> None:
        for gen in node.generators:
            self._check_set_iteration(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    # A SetComp over a set builds another set: order-insensitive, so it
    # keeps the default visit.


def _lint_files(paths: Iterable[str], report: Report,
                root: Optional[str]) -> List[_FileLint]:
    """Walk every ``.py`` file under ``paths`` once; each lint keeps its
    scope, counts and resolved emits."""
    lints: List[_FileLint] = []
    for sf, rel in astutil.parsed_files(paths, root):
        lint = _FileLint(sf, rel, report)
        lint.run()
        lints.append(lint)
    return lints


def verify_tree(
    paths: Iterable[str],
    report: Optional[Report] = None,
    root: Optional[str] = None,
) -> Report:
    """Run every tree lint over the ``.py`` files under ``paths``."""
    report = report if report is not None else Report()
    lints = _lint_files(paths, report, root)
    emit_sites = [lint.telemetry for lint in lints
                  if lint.telemetry is not None]
    check_span_pairing(emit_sites, report)
    report.analyzed["tree-lint"] = (
        f"{len(lints)} file(s): {len(emit_sites)} emit-site file(s), "
        f"{sum(lint.replays for lint in lints)} replay function(s), "
        f"{sum(lint.app_classes for lint in lints)} partitioned app "
        f"class(es)"
    )
    return report
