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


# -- one declaration per command ----------------------------------------------


def _leaves(parser, path=()):
    """``(command path, parser)`` for every subparser without children."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


def test_every_command_is_declared_by_the_module_the_table_names():
    import ast

    from repro.tools import runner

    leaves = dict(_leaves(runner.build_parser()))
    assert len(leaves) == 18
    assert {path[0] for path in leaves} == set(runner.OWNERS)
    for path, leaf in leaves.items():
        handler = leaf.get_default("run")
        assert handler is not None, f"{' '.join(path)} has no handler"
        assert handler.__module__ == runner.OWNERS[path[0]], path
    # The runner itself declares its own three commands and nothing else.
    calls = [node for node in ast.walk(ast.parse(open(runner.__file__).read()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)]
    declared = {call.args[0].value for call in calls
                if call.func.attr == "add_parser"}
    assert declared == {"list", "run", "bench"}
    assert sum(call.func.attr == "add_argument" for call in calls) <= 3


@pytest.mark.parametrize("argv, loaded, absent", [
    (["list"], [],
     ["repro.verify", "repro.chaos", "repro.shard", "repro.fastpath"]),
    (["shard", "plan", "nat"], ["repro.shard.cli"], ["repro.chaos"]),
], ids=["list", "shard_plan"])
def test_a_command_imports_only_its_owner(argv, loaded, absent):
    """Checked on a cold interpreter: tier-1's ``sys.modules`` is warm."""
    import subprocess
    import sys

    code = ("import sys; from repro.tools import main; "
            f"rc = main({argv!r}); "
            f"assert all(m in sys.modules for m in {loaded!r}); "
            f"bad = [m for m in {absent!r} if m in sys.modules]; "
            "assert not bad, bad; raise SystemExit(rc)")
    env = dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=_REPO,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv, known", [
    (["chaos", "nope"], "gray_link"),
    (["shard", "run", "nope"], "nat_quickstart"),
    (["shard", "diff", "nope"], "nat_quickstart"),
    (["run", "fig99"], "fig14"),
    (["bench", "fig99"], "fig14"),
], ids=["chaos", "shard_run", "shard_diff", "run", "bench"])
def test_unknown_name_is_a_message_and_exit_2(argv, known, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own rejection (choices=)
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert argv[-1] in err and known in err
    # One line from a handler; argparse adds its usage line.
    assert "Traceback" not in err and len(err.splitlines()) <= 2
