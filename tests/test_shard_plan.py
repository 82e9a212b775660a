"""Launch-time RS408: ``resolve`` byte-compares the committed plan with
the one the live code produces, and nothing can switch that off."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.shard import plan as plan_mod
from repro.shard.plan import PlanDriftError, PlanError
from repro.shard.runner import resolve
from repro.verify.partition_pass import plan_json


@pytest.fixture
def plans(tmp_path, monkeypatch):
    """A scratch copy of the committed plans that ``load_plan`` reads;
    site paths still relativize against the real repo."""
    directory = tmp_path / "shard_plans"
    shutil.copytree(plan_mod.plan_dir(), directory)
    monkeypatch.setattr(plan_mod, "plan_dir", lambda root=None: str(directory))
    return directory


def _rewrite(plans, edit):
    path = plans / "nat.json"
    plan = json.loads(path.read_text())
    edit(plan)
    path.write_text(plan_json(plan))


def test_resolve_accepts_the_committed_bytes(plans):
    config = resolve("nat_steady", 2)
    assert not config.pinned
    assert config.key_fields == config.plan["partition_key"]["fields"]


def _drops_a_key_field(plan):
    plan["partition_key"]["fields"].pop()


def _moves_a_site(plan):
    plan["structures"][0]["site"] = "src/repro/elsewhere.py:1"


@pytest.mark.parametrize("edit", [_drops_a_key_field, _moves_a_site],
                         ids=["consumed_field", "unconsumed_field"])
def test_resolve_refuses_a_plan_that_differs_from_the_live_code(plans, edit):
    """Drift in a field the runtime reads and in one it never looks at
    are the same refusal: the gate compares bytes, not meanings."""
    _rewrite(plans, edit)
    with pytest.raises(PlanDriftError, match="RS408"):
        resolve("nat_steady", 2)


def test_the_refusal_names_the_first_path_that_drifted(plans):
    _rewrite(plans, _moves_a_site)
    with pytest.raises(PlanDriftError) as err:
        resolve("nat_steady", 2)
    assert "at $.structures[0].site: live code has " in str(err.value)
    assert "committed plan has 'src/repro/elsewhere.py:1'" in str(err.value)
    _rewrite(plans, _drops_a_key_field)
    with pytest.raises(PlanDriftError, match=r"\$\.partition_key\.fields\["):
        resolve("nat_steady", 2)


def test_a_format_1_plan_is_refused_before_the_comparison(plans):
    """Format 2 as well: its sites were ``path:line``."""
    for stale in (1, 2):
        _rewrite(plans, lambda plan: plan.update(format=stale))
        with pytest.raises(
                PlanError, match=f"unsupported shard plan format {stale}"):
            resolve("nat_steady", 2)


def test_a_line_inserted_above_a_cited_class_is_not_drift(tmp_path):
    """Sites are ``path::QualName``: every plan cites ``RedPlaneEngine``,
    and moving that class down a line — in a scratch copy of the tree,
    analysed by a fresh interpreter — leaves the live plan byte-equal
    to the committed one."""
    root = os.path.dirname(plan_mod.plan_dir())
    shutil.copytree(os.path.join(root, "src", "repro"),
                    tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(plan_mod.plan_dir(), tmp_path / "shard_plans")
    engine = tmp_path / "src" / "repro" / "core" / "engine.py"
    text = engine.read_text()
    assert text.count("\nclass RedPlaneEngine") == 1
    engine.write_text(
        text.replace("\nclass RedPlaneEngine", "\n\nclass RedPlaneEngine"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools", "shard", "plan", "nat",
         "--json"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (tmp_path / "shard_plans" / "nat.json").read_text()
    assert '"site": "src/repro/core/engine.py::RedPlaneEngine"' in proc.stdout
