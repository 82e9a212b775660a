"""Tests for the experiment-runner CLI."""

import argparse
import glob
import os
import re

import pytest

from repro.tools import EXPERIMENTS, main
from repro.tools.runner import benchmarks_dir


def test_inventory_covers_every_figure_and_table():
    for key in ("fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
                "fig15", "table1", "table2", "appc"):
        assert key in EXPERIMENTS


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out and "table2" in out


def test_unknown_experiment_rejected():
    from repro.tools.runner import run_experiment

    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_benchmark_files_exist():
    import os

    bench = benchmarks_dir()
    for filename, _desc in EXPERIMENTS.values():
        assert os.path.exists(os.path.join(bench, filename)), filename


# -- every documented command still parses ------------------------------------

_REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
_INVOCATION = re.compile(r"-m\s+repro\.tools\b")
_SHELL_CUT = re.compile(r"\s(?:2?>|\||&&|;)\s|\s#|$")


def _documented_commands():
    """Yield ``(where, argv)`` for every ``-m repro.tools …`` (under
    ``python`` or ``python -m cProfile``) in the README, docs/, the CI
    workflow and the runner's own docstring.

    An inline-code mention runs to its closing backtick (prose wraps);
    anything else runs to the end of its line, plus following lines while
    the line ends in ``\\`` or the next one starts with ``--`` / ``[--``
    (shell and YAML-folded continuations). Shell comments, redirections
    and pipes end the command.
    """
    from repro.tools import runner

    sources = [os.path.join(_REPO, "README.md"),
               os.path.join(_REPO, ".github", "workflows", "ci.yml")]
    sources += sorted(glob.glob(os.path.join(_REPO, "docs", "*.md")))
    texts = [(os.path.relpath(p, _REPO), open(p, encoding="utf-8").read())
             for p in sources]
    texts.append(("tools/runner.py docstring", runner.__doc__))
    for where, text in texts:
        for match in _INVOCATION.finditer(text):
            paragraph = text[text.rfind("\n\n", 0, match.start()) + 1:
                             match.start()].replace("```", "")
            rest = text[match.end():]
            if paragraph.count("`") % 2:
                command = rest[:rest.index("`")]
            else:
                lines = rest.split("\n")
                command = lines[0]
                for nxt in lines[1:]:
                    if command.endswith("\\"):
                        command = command[:-1]
                    elif not nxt.lstrip().startswith(("--", "[--")):
                        break
                    command += " " + nxt.strip()
                command = command[:_SHELL_CUT.search(command).start()]
            line_no = text.count("\n", 0, match.start()) + 1
            yield f"{where}:{line_no}", command.split()


def _subparser(parser, name):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices.get(name)
    return None


def test_documented_commands_parse():
    """A removed subcommand or flag cannot linger in prose or CI: concrete
    command lines must parse (nothing runs); synopsis lines (``[--opt N]``,
    ``<placeholder>``, ``a|b``) must name real subcommands and flags."""
    from repro.tools.runner import build_parser

    parser = build_parser()
    seen = 0
    for where, argv in _documented_commands():
        seen += 1
        if not any(ch in tok for tok in argv for ch in "[]<>|"):
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{where}: does not parse: {' '.join(argv)}")
            continue
        for command in argv[0].split("|"):
            sub = _subparser(parser, command)
            assert sub is not None, f"{where}: no subcommand {command!r}"
            if len(argv) > 1 and _subparser(sub, argv[1]) is not None:
                sub = _subparser(sub, argv[1])
            known = {opt for a in sub._actions for opt in a.option_strings}
            for tok in argv[1:]:
                flag = tok.lstrip("[").rstrip("]")
                if flag.startswith("-"):
                    assert flag in known, \
                        f"{where}: {command} has no flag {flag!r}"
    assert seen > 60
