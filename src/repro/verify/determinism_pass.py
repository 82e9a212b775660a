"""Pass 2: the determinism linter.

The reproduction's headline claim is bit-identical figures: every run of
an experiment config must produce the same packets, the same counters,
the same JSON. That only holds if simulation code never consults sources
the simulator does not control. This pass walks the AST of every file
under ``src/repro/`` and flags the four ways nondeterminism has actually
crept into discrete-event simulators:

* **RD201** — wall-clock reads (``time.time()``, ``datetime.now()``,
  ``time.perf_counter()``): simulated time is :attr:`Simulator.now`;
  host time differs per run. (The telemetry stopwatch is the one
  sanctioned exception, suppressed with a justification on site.)
* **RD202** — unseeded randomness: module-level ``random.*`` calls use
  the shared global RNG (seeded by the OS), and ``random.Random()``
  without a seed argument is the same thing in a trenchcoat. Every RNG
  must derive from the experiment seed.
* **RD203** — iteration over sets: since hash randomization
  (PYTHONHASHSEED), set order varies between *processes*, so any set
  iteration whose order reaches output is a heisenbug. Iterate
  ``sorted(...)`` instead.
* **RD204** — ``id()`` used as a sort key or tie-break: CPython ids are
  addresses; they vary per run and per allocation order.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional, Tuple, Union

from repro.verify import astutil
from repro.verify.diagnostics import Report, SuppressionIndex

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


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, sf: astutil.SourceFile, rel: str, report: Report,
                 supp: SuppressionIndex) -> None:
        self.sf = sf
        self.rel = rel
        self.report = report
        self.supp = supp
        self.imports = astutil.ImportTable(sf.tree)
        #: Node ids of expressions consumed by order-insensitive builtins
        #: (``sorted(x - y)``, ``any(t in s for ...)``): exempt from RD203.
        self._sanctioned: set = set()

    # -- RD201 ----------------------------------------------------------------

    def _is_wall_clock(self, func: ast.AST) -> Optional[str]:
        for module, name in _WALL_CLOCKS:
            if self.imports.resolves_to(func, module, name):
                return f"{module}.{name}"
        return None

    # -- RD202 ----------------------------------------------------------------

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
            self.report.flag(
                "RD203",
                "iteration over a set: element order depends on "
                "PYTHONHASHSEED and varies between runs; wrap in sorted()",
                self.rel, iter_node.lineno, self.supp,
            )

    # -- RD204 ----------------------------------------------------------------

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

    # -- visitors -------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        clock = self._is_wall_clock(node.func)
        if clock is not None:
            self.report.flag(
                "RD201",
                f"wall-clock read {clock}(): simulation code must use the "
                "simulator's virtual clock (Simulator.now) so runs are "
                "reproducible",
                self.rel, node.lineno, self.supp,
            )
        unseeded = self._is_unseeded_random(node)
        if unseeded is not None:
            self.report.flag(
                "RD202",
                f"unseeded randomness via {unseeded}: derive every RNG "
                "from the experiment seed (random.Random(seed))",
                self.rel, node.lineno, self.supp,
            )
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_INSENSITIVE
        ):
            for a in node.args:
                self._sanctioned.add(id(a))
                if isinstance(
                    a, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
                ):
                    for gen in a.generators:
                        self._sanctioned.add(id(gen.iter))
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _SORTERS
        ):
            for kw in node.keywords:
                if kw.arg == "key" and self._key_uses_id(kw.value):
                    self.report.flag(
                        "RD204",
                        f"id() used as a {node.func.id}() key: CPython ids "
                        "are memory addresses and differ between runs; "
                        "key on a stable attribute instead",
                        self.rel, kw.value.lineno, self.supp,
                    )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "sort"
        ):
            for kw in node.keywords:
                if kw.arg == "key" and self._key_uses_id(kw.value):
                    self.report.flag(
                        "RD204",
                        "id() used as a .sort() key: CPython ids are memory "
                        "addresses and differ between runs; key on a stable "
                        "attribute instead",
                        self.rel, kw.value.lineno, self.supp,
                    )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comp(
        self, node: Union[ast.ListComp, ast.SetComp, ast.DictComp,
                          ast.GeneratorExp]
    ) -> None:
        for gen in node.generators:
            self._check_set_iteration(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Iterating a set to build another set is order-insensitive.
        self.generic_visit(node)


def verify_determinism(
    paths: Iterable[str],
    report: Optional[Report] = None,
    suppressions: Optional[SuppressionIndex] = None,
    root: Optional[str] = None,
) -> Report:
    """Lint every ``.py`` file under ``paths`` for nondeterminism."""
    report = report if report is not None else Report()
    suppressions = (
        suppressions if suppressions is not None else SuppressionIndex()
    )
    files = 0
    for sf, rel in astutil.parsed_files(paths, suppressions, root):
        files += 1
        _DeterminismVisitor(sf, rel, report, suppressions).visit(sf.tree)
    report.analyzed["determinism"] = f"{files} file(s) linted"
    return report
