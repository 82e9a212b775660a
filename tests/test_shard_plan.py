"""Launch-time RS408: ``resolve`` byte-compares the committed plan with
the one the live code produces, and nothing can switch that off."""

from __future__ import annotations

import json
import shutil

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


def test_a_format_1_plan_is_refused_before_the_comparison(plans):
    _rewrite(plans, lambda plan: plan.update(format=1))
    with pytest.raises(PlanError, match="unsupported shard plan format 1"):
        resolve("nat_steady", 2)
