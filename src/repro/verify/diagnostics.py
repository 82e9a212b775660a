"""The diagnostic engine shared by all five verifier passes.

Diagnostics carry a stable rule id, a severity, a source location
(``file:line``), and a logical site (``block=... app=...`` — the same
format the runtime :class:`~repro.switch.pipeline.RegisterAccessError`
cites, so a static RP101 and its runtime twin point at the same place).
Nothing can be waived: a rule's exceptions are its scope, decided where
the rule runs.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1}[self.value]


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

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}"

    def render(self) -> str:
        sev = self.severity.value.upper()
        site = f" [{self.site}]" if self.site else ""
        return f"{self.location}: {sev} {self.rule}: {self.message}{site}"

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.file,
            "line": self.line,
        }
        if self.site:
            out["site"] = self.site
        return out


@dataclass
class Report:
    """The outcome of one or more verifier passes."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Pass name -> summary string (what was analyzed).
    analyzed: Dict[str, str] = field(default_factory=dict)

    def flag(self, rule_id: str, message: str, file: str, line: int,
             site: str = "") -> Diagnostic:
        """File a diagnostic of rule ``rule_id`` with its registered
        severity; ``file`` is already the path the report shows."""
        from repro.verify.rules import RULES

        rule = RULES[rule_id]
        diag = Diagnostic(rule.id, rule.severity, message, file, line, site)
        self.diagnostics.append(diag)
        return diag

    # -- querying -------------------------------------------------------------

    def of(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule_id]

    def exit_code(self, strict: bool = False) -> int:
        """0 iff no error (with ``strict``: nor warning)."""
        if self.of(Severity.ERROR):
            return 1
        if strict and self.of(Severity.WARNING):
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
        errors = len(self.of(Severity.ERROR))
        warnings = len(self.of(Severity.WARNING))
        lines.append(f"{errors} error(s), {warnings} warning(s)")
        return "\n".join(lines)

    def to_json(self) -> str:
        doc = {
            "analyzed": dict(sorted(self.analyzed.items())),
            "diagnostics": [d.to_dict() for d in self.sorted_diagnostics()],
            "summary": {
                "errors": len(self.of(Severity.ERROR)),
                "warnings": len(self.of(Severity.WARNING)),
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)
