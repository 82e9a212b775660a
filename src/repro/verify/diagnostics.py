"""The diagnostic engine shared by all five verifier passes.

Diagnostics carry a stable rule id, a severity, a source location
(``file:line``), and a logical site (``block=... app=...`` — the same
format the runtime :class:`~repro.switch.pipeline.RegisterAccessError`
cites, so a static RP101 and its runtime twin point at the same place).

Suppressions are source comments::

    something_flagged()  # repro: noqa[RD201] -- why this is safe

The rule list in brackets names what is being waived; the text after
``--`` is the mandatory justification (a bare noqa is itself a QA001
diagnostic). Suppressed diagnostics stay in the report, marked, so the
JSON artifact shows what was waived and why.
"""

from __future__ import annotations

import enum
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


#: Matches a ``repro: noqa[RP101,RD201] -- justification`` comment
#: (justification optional in the grammar; its absence is a QA001
#: diagnostic, not a parse error).
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<rules>[A-Z0-9,\s]+)\]"
    r"(?:\s*--\s*(?P<why>.*\S))?"
)


def _comments(source: str) -> List[Tuple[int, str]]:
    """(line, text) of every real comment token — docstrings that merely
    *mention* the noqa syntax are not suppressions. Falls back to a
    per-line scan when the file does not tokenize."""
    try:
        return [
            (tok.start[0], tok.string)
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return list(enumerate(source.splitlines(), start=1))


@dataclass
class Suppression:
    """One ``# repro: noqa[...]`` comment found in a source file."""

    file: str
    line: int
    rules: Tuple[str, ...]
    justification: Optional[str]
    used: bool = False


class SuppressionIndex:
    """All noqa comments of a file set, queried per (file, line, rule)."""

    def __init__(self) -> None:
        self._by_file: Dict[str, List[Suppression]] = {}
        self._scanned: Set[str] = set()

    def scan(self, path: str, source: Optional[str] = None) -> None:
        if path in self._scanned:
            return
        self._scanned.add(path)
        if source is None:
            try:
                with open(path, encoding="utf-8") as fh:
                    source = fh.read()
            except OSError:
                return
        if "noqa" not in source:
            return  # nothing _NOQA_RE could match: skip the tokenizer
        entries = self._by_file.setdefault(path, [])
        for lineno, text in _comments(source):
            m = _NOQA_RE.search(text)
            if m is None:
                continue
            rules = tuple(
                r.strip() for r in m.group("rules").split(",") if r.strip()
            )
            entries.append(
                Suppression(path, lineno, rules, m.group("why"))
            )

    def match(self, path: str, line: int, rule_id: str) -> Optional[Suppression]:
        for supp in self._by_file.get(path, ()):
            if supp.line == line and rule_id in supp.rules:
                supp.used = True
                return supp
        return None

    def all(self) -> List[Suppression]:
        out: List[Suppression] = []
        for entries in self._by_file.values():
            out.extend(entries)
        return out


@dataclass
class Diagnostic:
    """One finding: a rule violation at a source location."""

    rule: str
    severity: Severity
    message: str
    file: str
    line: int
    #: Logical site in the runtime-error format, e.g.
    #: ``block=redplane(nat)`` — empty for tree lints.
    site: str = ""
    suppressed: bool = False
    justification: Optional[str] = None

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def render(self) -> str:
        sev = self.severity.value.upper()
        tag = " (suppressed)" if self.suppressed else ""
        site = f" [{self.site}]" if self.site else ""
        return f"{self.location}: {sev} {self.rule}{tag}: {self.message}{site}"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "suppressed": self.suppressed,
        }
        if self.site:
            out["site"] = self.site
        if self.justification is not None:
            out["justification"] = self.justification
        return out


@dataclass
class Report:
    """The outcome of one or more verifier passes."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Pass name -> summary string (what was analyzed).
    analyzed: Dict[str, str] = field(default_factory=dict)

    def add(self, diag: Diagnostic,
            suppressions: Optional[SuppressionIndex] = None) -> Diagnostic:
        """File a diagnostic, applying any matching suppression."""
        if suppressions is not None:
            supp = suppressions.match(diag.file, diag.line, diag.rule)
            if supp is not None:
                diag.suppressed = True
                diag.justification = supp.justification
        self.diagnostics.append(diag)
        return diag

    def flag(self, rule_id: str, message: str, file: str, line: int,
             suppressions: Optional[SuppressionIndex] = None,
             site: str = "") -> Diagnostic:
        """File a diagnostic of rule ``rule_id`` with its registered
        severity; ``file`` is already the path the report shows."""
        from repro.verify.rules import RULES

        rule = RULES[rule_id]
        return self.add(
            Diagnostic(rule.id, rule.severity, message, file, line, site),
            suppressions,
        )

    def finalize_suppressions(
        self,
        suppressions: SuppressionIndex,
        rules: Optional[Tuple[str, ...]] = None,
    ) -> None:
        """File QA001/QA002 for bad or unused noqa comments.

        Call once, after every pass that shares ``suppressions`` has
        produced every diagnostic its file set can yield. ``rules``
        restricts the unused-suppression check (QA002) to suppressions
        of rule ids with one of the given prefixes (e.g. ``("RT",)``
        when only the telemetry pass ran): a pass that merely *scanned*
        a file cannot know whether another pass's suppression in it is
        earning its keep, so standalone pass runs must not flag
        suppressions outside their own rule family. QA001 (used but
        unjustified) needs no such filter — a used suppression matched
        a diagnostic some running pass produced.
        """
        for supp in suppressions.all():
            if supp.used and not supp.justification:
                self.diagnostics.append(Diagnostic(
                    "QA001", Severity.ERROR,
                    f"suppression of {','.join(supp.rules)} has no "
                    "justification (add '-- why' after the bracket)",
                    supp.file, supp.line,
                ))
            elif not supp.used:
                if rules is not None and not any(
                    r.startswith(rules) for r in supp.rules
                ):
                    continue
                self.diagnostics.append(Diagnostic(
                    "QA002", Severity.WARNING,
                    f"suppression of {','.join(supp.rules)} matched no "
                    "diagnostic; remove it",
                    supp.file, supp.line,
                ))

    # -- querying -------------------------------------------------------------

    def active(self, severity: Optional[Severity] = None) -> List[Diagnostic]:
        """Unsuppressed diagnostics, optionally filtered by severity."""
        return [
            d for d in self.diagnostics
            if not d.suppressed
            and (severity is None or d.severity is severity)
        ]

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule_id]

    def exit_code(self, strict: bool = False) -> int:
        """0 iff no unsuppressed error (with ``strict``: nor warning)."""
        if self.active(Severity.ERROR):
            return 1
        if strict and self.active(Severity.WARNING):
            return 1
        return 0

    # -- rendering ------------------------------------------------------------

    def sorted_diagnostics(self) -> List[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (d.severity.rank, d.file, d.line, d.rule, d.message),
        )

    def render(self) -> str:
        lines: List[str] = []
        for name in sorted(self.analyzed):
            lines.append(f"-- {name}: {self.analyzed[name]}")
        for diag in self.sorted_diagnostics():
            lines.append(diag.render())
        errors = len(self.active(Severity.ERROR))
        warnings = len(self.active(Severity.WARNING))
        suppressed = sum(1 for d in self.diagnostics if d.suppressed)
        lines.append(
            f"{errors} error(s), {warnings} warning(s), "
            f"{suppressed} suppressed"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        doc = {
            "analyzed": dict(sorted(self.analyzed.items())),
            "diagnostics": [d.to_dict() for d in self.sorted_diagnostics()],
            "summary": {
                "errors": len(self.active(Severity.ERROR)),
                "warnings": len(self.active(Severity.WARNING)),
                "suppressed": sum(
                    1 for d in self.diagnostics if d.suppressed
                ),
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)
