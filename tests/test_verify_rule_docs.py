"""docs/VERIFY.md documents exactly the rules the analyzer registers,
every test its rule tables name as a rule's firing test exists, and
every rule row carries its audit."""

import ast
import os
import re

from repro.verify.rules import RULES

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))

#: One rule-table row: ``| ID | severity | meaning | fires in | flagged
#: real code | premise | runtime twin | only this rule |``.
_ROW = re.compile(r"^\| ([A-Z]{2}\d{3}) \| (\w+) \|(.*)$")


def _rule_rows():
    """``id -> (severity, firing-test names, audit cells)`` from the
    docs' tables."""
    with open(os.path.join(ROOT, "docs", "VERIFY.md")) as f:
        lines = f.read().splitlines()
    rows = {}
    for line in lines:
        match = _ROW.match(line)
        if match is None:
            continue
        rule_id, severity, rest = match.groups()
        assert rule_id not in rows, f"{rule_id} documented twice"
        cells = [c.strip() for c in rest.strip().strip("|").split(" | ")]
        rows[rule_id] = (severity, re.findall(r"`(test_\w+)`", cells[1]),
                         cells[3:])
    return rows


def _test_functions():
    names = set()
    for directory, _dirs, files in os.walk(os.path.join(ROOT, "tests")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name)) as f:
                    tree = ast.parse(f.read())
                names.update(node.name for node in ast.walk(tree)
                             if isinstance(node, ast.FunctionDef)
                             and node.name.startswith("test_"))
    return names


def test_documented_rules_are_the_registered_rules():
    rows = _rule_rows()
    assert sorted(rows) == sorted(RULES)
    for rule_id, (severity, _tests, _audit) in rows.items():
        assert severity == RULES[rule_id].severity.value, rule_id


def test_every_documented_firing_test_exists():
    defined = _test_functions()
    rows = _rule_rows()
    named = {test for _severity, tests, _audit in rows.values()
             for test in tests}
    assert all(tests for _severity, tests, _audit in rows.values())
    assert sorted(named - defined) == []


def test_every_rule_row_fills_its_audit():
    """*Premise*, *Runtime twin* and *Only this rule*, right of the
    census: no rule is kept or added without saying which defect only
    it catches."""
    for rule_id, (_severity, _tests, audit) in _rule_rows().items():
        assert len(audit) == 3, rule_id
        assert all(cell not in ("", "—", "-") for cell in audit), rule_id
