"""Names are a contract: later PRs are judged on exactly these."""

import json
import os
import re

from bench import ROOT
from bench.__main__ import DEFAULT_SECONDS
from bench.metrics import END_TO_END, PER_LAYER, benchmark_json
from bench.selfcheck import LIMITS
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _document():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_name_and_unit_is_well_formed_and_used_once():
    names = ([m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
             + list(WORKLOADS))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for _name, unit, better, *_ in END_TO_END + PER_LAYER:
        assert UNIT.match(unit), unit
        assert better in ("higher", "lower")


def test_the_issue_names_are_present_verbatim():
    assert list(WORKLOADS) == [
        "nat_steady_ref", "nat_steady_fastpath", "counter_write",
        "flow_churn", "flow_churn_shard2", "chaos_fuzz"]
    assert [m[0] for m in END_TO_END] == [
        "pkts_per_s", "setup_s", "peak_rss_mb", "events_per_pkt"]


def test_benchmark_json_is_generated_from_these_lists():
    workloads = [(w.name, w.why) for w in WORKLOADS.values()]
    assert _document() == benchmark_json(workloads, int(DEFAULT_SECONDS))


def test_benchmark_json_meets_the_contract_limits():
    doc = _document()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    # 4 + 22 runs per workload, each well inside its share of 3420 s.
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * 2.2 * doc["run_seconds"] < 3420


def test_selfcheck_limits_are_tighter_than_the_regression_bounds():
    for name, _unit, _better, bound in END_TO_END:
        assert LIMITS[name] < bound
