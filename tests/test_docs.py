"""The docs describe the current code, and the counts they quote are
checked against their sources of truth.

A failing table test prints the table the page should carry, so there
is no regeneration command: paste it. A line budget may be lowered by a
change that shrinks its pages, and is never raised.
"""

import glob
import json
import os
import re

from repro.chaos import CAMPAIGNS
from repro.verify.rules import RULES

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
DOCS = os.path.join(ROOT, "docs")

#: Lines all of docs/ may take, and docs/PERFORMANCE.md alone.
DOCS_LINE_BUDGET = 2000
PERFORMANCE_LINE_BUDGET = 300


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _pages():
    return sorted(glob.glob(os.path.join(DOCS, "*.md")))


def _prose_sources():
    return ([os.path.join(ROOT, name)
             for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
            + _pages())


def _table(text, heading):
    """The first table under ``heading``: its header cells and body rows."""
    lines = text.split("\n")
    start = lines.index(heading)
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        if line.startswith("|"):
            rows.append([c.strip() for c in line.strip().strip("|").split("|")])
        elif rows:
            break
    header, _rule, *body = rows
    return header, body


def _number(cell):
    return None if cell == "—" else float(cell)


# -- PERFORMANCE.md's checked tables -------------------------------------------


def _frames_markdown(budgets):
    shapes = list(budgets)
    names = sorted({row for rows in budgets.values() for row in rows},
                   key=lambda row: (row != "other", row))
    lines = ["| file | " + " | ".join(f"`{s}`" for s in shapes) + " |",
             "|---|" + "---:|" * len(shapes)]
    for name in names:
        cells = [str(budgets[s][name]) if name in budgets[s] else "—"
                 for s in shapes]
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def test_frames_table_is_the_frame_budgets():
    """Every shape and every row of ``tests/frame_budgets.json``."""
    budgets = json.loads(_read(os.path.join(ROOT, "tests",
                                            "frame_budgets.json")))
    header, body = _table(_read(os.path.join(DOCS, "PERFORMANCE.md")),
                          "### Frames per delivered packet")
    shapes = [cell.strip("`") for cell in header[1:]]
    documented = {shape: {} for shape in shapes}
    for row in body:
        for shape, cell in zip(shapes, row[1:]):
            if _number(cell) is not None:
                documented[shape][row[0].strip("`")] = _number(cell)
    assert documented == budgets, (
        "docs/PERFORMANCE.md's frames table differs from "
        "tests/frame_budgets.json; it should read:\n" + _frames_markdown(budgets))


def _ci_event_bounds():
    """``{workload: bound}`` from the ``events_per_pkt <=`` assertions of
    the ``perf-smoke`` job in the CI workflow."""
    text = _read(os.path.join(ROOT, ".github", "workflows", "ci.yml"))
    job = re.search(r"^  perf-smoke:\n(.*?)(?=^  [\w-]+:\n|\Z)", text,
                    re.M | re.S).group(1)
    bounds = {}
    for name, bound in re.findall(
            r'runs\["(\w+)"\]\["metrics"\]\["events_per_pkt"\]\["value"\]'
            r"\s+assert epp <= ([\d.]+)", job):
        bounds[name] = float(bound)
    for loop in re.findall(r"for name, bound in \((.*?)\):", job, re.S):
        for name, bound in re.findall(r'\("(\w+)", ([\d.]+)\)', loop):
            assert name not in bounds, f"{name} bounded twice"
            bounds[name] = float(bound)
    return bounds


def test_events_table_is_the_ci_gate():
    """Every workload of the benchmark, at the bound CI holds it to."""
    bounds = _ci_event_bounds()
    workloads = [w["name"] for w in
                 json.loads(_read(os.path.join(ROOT, "BENCHMARK.json")))
                 ["workloads"]]
    assert sorted(bounds) == sorted(workloads)
    _header, body = _table(_read(os.path.join(DOCS, "PERFORMANCE.md")),
                           "### Events per packet")
    documented = {row[0].strip("`"): _number(row[1]) for row in body}
    expected = "\n".join(
        ["| workload | `events_per_pkt` ≤ |", "|---|---:|"]
        + [f"| `{name}` | {bounds[name]} |" for name in workloads])
    assert documented == bounds, (
        "docs/PERFORMANCE.md's events table differs from ci.yml's "
        "perf-smoke bounds; it should read:\n" + expected)


# -- counts in prose ------------------------------------------------------------

_WORDS = dict(zip(
    "one two three four five six seven eight nine ten eleven twelve".split(),
    range(1, 13)))
_COUNT = r"(\d+|" + "|".join(_WORDS) + r")"


def test_rule_and_campaign_counts_in_prose_are_current():
    """The verifier's rule count ("N rules") and the chaos corpus ("N
    named campaigns"), wherever the docs quote either."""
    counts = {_COUNT + r" rules\b": len(RULES),
              _COUNT + r" named (?:chaos )?campaigns\b": len(CAMPAIGNS)}
    quoted, wrong = set(), []
    for path in _prose_sources():
        text = re.sub(r"\s+", " ", _read(path))
        for pattern, actual in counts.items():
            for word in re.findall(pattern, text, re.I):
                quoted.add(pattern)
                count = _WORDS.get(word.lower()) or int(word)
                if count != actual:
                    wrong.append(f"{os.path.relpath(path, ROOT)}: "
                                 f"{word} where {actual} is current")
    assert wrong == []
    assert quoted == set(counts)


# -- references to a page's sections --------------------------------------------


def _headings(path):
    """Every heading of a markdown page, outside code fences."""
    headings, fenced = [], False
    for line in _read(path).split("\n"):
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and re.match(r"#{1,6} ", line):
            headings.append(line.lstrip("#").strip())
    return headings


def _slug(heading):
    return re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")


def _page(name, relative_to=ROOT):
    for base in (relative_to, ROOT, DOCS):
        path = os.path.normpath(os.path.join(base, name))
        if os.path.exists(path):
            return path
    raise AssertionError(f"no page {name}")


#: ``docs/<PAGE>.md, "<Heading>"`` or ``<PAGE>.md "<Heading>"``, also as a
#: markdown link, in prose or in a comment or docstring wrapped over lines.
_SECTION_REF = re.compile(
    r'((?:docs/)?[A-Z][A-Z_]*\.md)(?:\]\([^)]*\))?,?\s+"([A-Z][^"]*)"')


def test_every_cited_section_exists():
    """A heading renamed or dropped fails here instead of leaving a
    dangling reference in code, tests or docs."""
    sources = [path for tree in ("src", "tests")
               for path in glob.glob(os.path.join(ROOT, tree, "**", "*.py"),
                                     recursive=True)]
    sources += _prose_sources()
    cited, dangling = 0, []
    for path in sources:
        text = re.sub(r"\n[ \t]*(?:#:?[ \t]*)?", " ", _read(path))
        for page, heading in _SECTION_REF.findall(text):
            cited += 1
            if heading not in _headings(_page(page)):
                dangling.append(f"{os.path.relpath(path, ROOT)}: "
                                f"{page} \"{heading}\"")
    assert dangling == []
    assert cited >= 10


def test_every_anchor_link_resolves():
    """``[text](PAGE.md#anchor)`` and ``[text](#anchor)`` name a heading."""
    broken, links = [], 0
    for path in _prose_sources():
        here = os.path.dirname(path)
        for page, anchor in re.findall(r"\]\(([\w./]*\.md)?#([\w-]+)\)",
                                       _read(path)):
            links += 1
            target = _page(page, here) if page else path
            if anchor not in map(_slug, _headings(target)):
                broken.append(f"{os.path.relpath(path, ROOT)}: {page}#{anchor}")
    assert broken == []
    assert links >= 3


# -- line budgets ---------------------------------------------------------------


def _lines(path):
    return _read(path).count("\n")


def test_docs_stay_within_their_line_budgets():
    """The pages describe the present; each change's history is its
    CHANGES.md entry, so the pages do not grow by a section per change."""
    total = sum(_lines(path) for path in _pages())
    assert total <= DOCS_LINE_BUDGET, total
    performance = _lines(os.path.join(DOCS, "PERFORMANCE.md"))
    assert performance <= PERFORMANCE_LINE_BUDGET, performance
