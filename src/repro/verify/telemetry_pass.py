"""Pass 3: the telemetry-schema lint.

Every ``tracer.emit(...)`` and every metric-instrument creation in the
tree is checked against the declared contract in
:mod:`repro.telemetry.schema`:

* trace types must be declared (RT301) and emit the declared fields
  (RT302) — a site spreading a prebuilt dict (``emit(T, **fields)``)
  escapes the field check, since which keys it carries is a runtime
  fact;
* a row site (``emit(T, keys, values)``) is held to the same two rules
  through its key tuple, which must therefore be a literal tuple of
  strings, as long as a literal value tuple and with no keywords beside
  it (RT307), so no row site escapes the field check;
* metric names must be declared (RT304) with the declared label-key set
  (RT305) and instrument kind (RT306), and every label key needs a
  bounded domain in :data:`~repro.telemetry.schema.LABEL_DOMAINS`
  (RT303);
* a file set that emits a span-opening type but none of its closing
  types produces spans that can never terminate (RT310).

Trace-type arguments are resolved through each file's import table: the
constants in :mod:`repro.telemetry.trace` whichever way the module is
imported (``import repro.telemetry.trace as tt``, ``from
repro.telemetry import trace as tt``, ``from repro.telemetry.trace
import PACKET_SEND``), string literals, and one level of local aliasing
(``event_type = tt.A if cond else tt.B``) are all understood. An emit
is a call of any ``.emit`` attribute or of a local name bound to one
(``emit = sim.tracer.emit; emit(tt.PACKET_SEND, ...)``); one that
passes more than the type positionally is a row site.

The tree-lint driver (:func:`repro.verify.determinism_pass.verify_tree`)
walks each file once and hands this pass the file's import table, its
assignments and its calls; RT310 runs after the walk, over every file.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.telemetry import schema
from repro.telemetry import trace as _trace_mod
from repro.verify import astutil
from repro.verify.diagnostics import Report

_INSTRUMENT_METHODS = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
}

#: Placeholder for f-string interpolations in metric names: matched by a
#: ``*`` in a declared pattern, never by a literal segment.
_DYN = "\x00dyn\x00"

#: Known trace-type constant values (for string-literal emit sites).
_KNOWN_TYPES = set(schema.TRACE_EVENTS)


def _is_trace_module(dotted: Optional[str]) -> bool:
    return dotted is not None and (
        dotted == "trace" or dotted.endswith("telemetry.trace")
    )


class TelemetryLint:
    """RT301-306 over one emit-site file, from what the walk collected."""

    def __init__(self, imports: astutil.ImportTable, rel: str,
                 report: Report) -> None:
        self.rel = rel
        self.report = report
        self.imports = imports
        #: Local name -> possible trace-type strings (one assignment level).
        self.aliases: Dict[str, Set[str]] = {}
        #: Local names bound to an ``.emit`` method (``emit = tracer.emit``).
        self.bound_emits: Set[str] = set()
        #: (type, lineno) per resolved trace emit in this file.
        self.emits: List[Tuple[str, int]] = []

    # -- trace-type resolution -------------------------------------------------

    def _const_of(self, node: ast.AST) -> Optional[str]:
        """The trace-type string an expression denotes, if resolvable."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        chain = astutil.attr_chain(node)
        if chain is None:
            return None
        if len(chain) == 2:
            module = self.imports.modules.get(chain[0])
            origin = self.imports.names.get(chain[0])
            if module is None and origin is not None:
                module = ".".join(origin)  # from repro.telemetry import trace
            if _is_trace_module(module):
                value = getattr(_trace_mod, chain[1], None)
                return value if isinstance(value, str) else None
        if len(chain) == 1:
            origin = self.imports.names.get(chain[0])
            if origin is not None and _is_trace_module(origin[0]):
                value = getattr(_trace_mod, origin[1], None)
                return value if isinstance(value, str) else None
        return None

    def _types_of(self, node: ast.AST) -> Set[str]:
        one = self._const_of(node)
        if one is not None:
            return {one}
        if isinstance(node, ast.IfExp):
            return self._types_of(node.body) | self._types_of(node.orelse)
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id, set())
        return set()

    def _collect_aliases(self, assigns: Sequence[ast.Assign]) -> None:
        for node in assigns:
            if len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if (isinstance(node.value, ast.Attribute)
                            and node.value.attr == "emit"):
                        self.bound_emits.add(target.id)
                        continue
                    types = self._types_of(node.value)
                    if types:
                        self.aliases[target.id] = types

    # -- trace emits -----------------------------------------------------------

    def _check_emit(self, node: ast.Call) -> None:
        if not node.args:
            return
        types = self._types_of(node.args[0])
        if not types:
            return
        present: Optional[Set[str]]
        if len(node.args) > 1:
            present = self._row_keys(node)
        elif any(kw.arg is None for kw in node.keywords):
            present = None  # field set is a runtime fact at **-sites
        else:
            present = {kw.arg for kw in node.keywords}
        for type_ in sorted(types):
            spec = schema.TRACE_EVENTS.get(type_)
            if spec is None:
                self.report.flag(
                    "RT301",
                    f"trace type {type_!r} is not declared in "
                    "repro.telemetry.schema.TRACE_EVENTS; span "
                    "reconstruction will not know its role",
                    self.rel, node.lineno,
                )
                continue
            self.emits.append((type_, node.lineno))
            if present is None:
                continue
            missing = sorted(spec.required - present)
            if missing:
                self.report.flag(
                    "RT302",
                    f"emit of {type_!r} is missing required field(s) "
                    f"{', '.join(missing)}",
                    self.rel, node.lineno,
                )
            undeclared = sorted(present - spec.allowed)
            if undeclared:
                self.report.flag(
                    "RT302",
                    f"emit of {type_!r} carries undeclared field(s) "
                    f"{', '.join(undeclared)}; declare them in "
                    "TRACE_EVENTS or drop them",
                    self.rel, node.lineno,
                )

    def _row_keys(self, node: ast.Call) -> Optional[Set[str]]:
        """A row site's field names, or RT307 and ``None`` unless they
        are a literal tuple of strings as long as a literal value tuple,
        with no keyword fields beside them."""
        keys = node.args[1]
        values = node.args[2] if len(node.args) > 2 else None
        names = None
        if isinstance(keys, ast.Tuple) and all(
                isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                for elt in keys.elts):
            names = [elt.value for elt in keys.elts]
        if (names is None or node.keywords or len(node.args) != 3
                or (isinstance(values, ast.Tuple)
                    and len(values.elts) != len(names))):
            self.report.flag(
                "RT307",
                "a row emit's keys must be a literal tuple of field-name "
                "strings, followed by a value tuple as long and by no "
                "keyword fields, so the field schema can be checked",
                self.rel, node.lineno,
            )
            return None
        return set(names)

    # -- metric sites ----------------------------------------------------------

    def _name_pattern(self, node: ast.AST) -> Optional[str]:
        """Metric name at an instrument-creation site; f-string holes
        become a placeholder only declared wildcards can match."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr):
            parts: List[str] = []
            for value in node.values:
                if isinstance(value, ast.Constant):
                    parts.append(str(value.value))
                else:
                    parts.append(_DYN)
            return "".join(parts)
        return None

    def _check_instrument(self, node: ast.Call, kind: str) -> None:
        name = self._name_pattern(node.args[0] if node.args else None)
        if name is None:
            return
        labels = {
            kw.arg for kw in node.keywords
            if kw.arg is not None and kw.arg != "max_samples"
        }
        unbounded = sorted(labels - set(schema.LABEL_DOMAINS))
        if unbounded:
            self.report.flag(
                "RT303",
                f"label key(s) {', '.join(unbounded)} on metric {name!r} "
                "have no declared cardinality bound in LABEL_DOMAINS; "
                "per-packet label values make the registry unbounded",
                self.rel, node.lineno,
            )
        for spec in schema.METRICS:
            if fnmatchcase(name, spec.name):
                if spec.kind != kind:
                    self.report.flag(
                        "RT306",
                        f"metric {name!r} created as a {kind} but declared "
                        f"as a {spec.kind} (registering a name as two kinds "
                        "raises at runtime)",
                        self.rel, node.lineno,
                    )
                if labels != spec.labels:
                    self.report.flag(
                        "RT305",
                        f"metric {name!r} created with labels "
                        f"{{{', '.join(sorted(labels)) or ''}}} but the "
                        f"schema declares "
                        f"{{{', '.join(sorted(spec.labels)) or ''}}}; "
                        "aggregations keyed on the declared set will miss "
                        "this instrument",
                        self.rel, node.lineno,
                    )
                return
        self.report.flag(
            "RT304",
            f"metric {name!r} is not declared in "
            "repro.telemetry.schema.METRICS",
            self.rel, node.lineno,
        )

    # -- drive -----------------------------------------------------------------

    def run(self, assigns: Sequence[ast.Assign],
            calls: Sequence[ast.Call]) -> None:
        """Resolve the file's aliases, then check every call in it."""
        self._collect_aliases(assigns)
        for node in calls:
            if isinstance(node.func, ast.Name):
                if node.func.id in self.bound_emits:
                    self._check_emit(node)
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr == "emit":
                self._check_emit(node)
            elif attr in _INSTRUMENT_METHODS:
                base = astutil.attr_chain(node.func.value)
                # Only registry receivers: ``...metrics.counter`` / ``m.*``
                # / ``sim.metrics.*`` — not e.g. itertools.count.
                if base is not None and base[-1] in (
                    "metrics", "m", "registry"
                ):
                    self._check_instrument(node, _INSTRUMENT_METHODS[attr])


def check_span_pairing(lints: Sequence[TelemetryLint],
                       report: Report) -> None:
    """RT310: pairing across the whole file set."""
    emitted: Set[str] = set()
    for lint in lints:
        emitted.update(t for t, _ in lint.emits)
    for opener, closers in sorted(schema.PAIRS.items()):
        if opener in emitted and not (closers & emitted):
            for lint in lints:
                for type_, line in lint.emits:
                    if type_ == opener:
                        report.flag(
                            "RT310",
                            f"span-opening type {opener!r} is emitted but "
                            f"no closing type "
                            f"({', '.join(sorted(closers))}) is emitted "
                            "anywhere in the analyzed files: these spans "
                            "can never terminate",
                            lint.rel, line,
                        )
