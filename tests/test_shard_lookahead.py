"""Lookahead math: every committed plan's ``sync_lookahead_us`` against
its own link set and against the live topology."""

from __future__ import annotations

import copy
import json

import pytest

from repro.shard.plan import (
    PlanError,
    available_plans,
    load_plan,
    sync_window_us,
)
from repro.shard.runner import resolve


def _committed_plans():
    names = available_plans()
    assert names, "no committed shard plans found"
    return names


@pytest.mark.parametrize("app", _committed_plans())
def test_committed_lookahead_is_min_cross_shard_link_latency(app):
    plan = load_plan(app)
    links = (plan.get("cross_shard") or {}).get("links") or []
    window = sync_window_us(plan)
    if not links:
        assert window == 0.0
        return
    assert window == min(float(l["latency_us"]) for l in links)
    assert window > 0.0


@pytest.mark.parametrize("app", _committed_plans())
def test_tampered_lookahead_is_rejected(app):
    plan = load_plan(app)
    links = (plan.get("cross_shard") or {}).get("links") or []
    if not links:
        pytest.skip("plan has no cross-shard links")
    tampered = copy.deepcopy(plan)
    tampered["cross_shard"]["sync_lookahead_us"] = (
        float(tampered["cross_shard"]["sync_lookahead_us"]) * 2.0
    )
    with pytest.raises(PlanError):
        sync_window_us(tampered)


def test_nat_lookahead_matches_the_live_topology():
    """The committed artifact against ground truth: deploy the testbed
    and re-derive the minimum crossing-link latency."""
    from repro import Simulator, deploy
    from repro.apps.nat import NatApp

    plan = load_plan("nat")
    dep = deploy(Simulator(seed=1), NatApp)
    agg_names = {a.name for a in dep.bed.aggs}
    crossing = [
        link.latency_us
        for link in dep.bed.topology.links
        if (link.a.node.name in agg_names)
        != (link.b.node.name in agg_names)
    ]
    assert crossing, "testbed has no links crossing a shard group"
    assert sync_window_us(plan) == min(crossing)


def test_resolve_refuses_a_tampered_plan_without_the_conformance_gate(tmp_path):
    """``resolve`` consumes no lookahead value, but still runs the
    artifact's consistency check — with ``conformance=False`` it is the
    only thing between a hand-edited plan and a sharded run."""
    tampered = load_plan("nat")
    tampered["cross_shard"]["sync_lookahead_us"] = 0.7
    (tmp_path / "shard_plans").mkdir()
    (tmp_path / "shard_plans" / "nat.json").write_text(json.dumps(tampered))
    with pytest.raises(PlanError, match="sync_lookahead_us=0.7"):
        resolve("nat_steady", 2, conformance=False, root=str(tmp_path))
