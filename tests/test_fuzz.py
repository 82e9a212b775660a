"""Tests for the fault-schedule fuzzer: generation determinism and
fairness, shrinking, witnesses, the mutation self-check, and the CLI."""

import json
import os

import pytest

from repro.chaos.campaigns import STORE_LINK, Campaign
from repro.chaos.fuzz import (
    EARLIEST_FAULT_US,
    SETTLE_BEFORE_END_US,
    TIME_GRID_US,
    generate_spec,
    mutation_self_check,
    regression_payload,
    replay_regression,
    run_fuzz,
    run_spec,
    spec_witness,
)
from repro.chaos.shrink import _units, shrink_spec
from repro.model.witness import ViolationWitness
from repro.mutation import MUTATIONS, mutation_active, seeded_bug
from repro.workloads.failures import FaultSpec

_REGRESSION = os.path.join(os.path.dirname(__file__), "regressions",
                           "fuzz-s5-i5.json")


def _minimal_spec() -> Campaign:
    with open(_REGRESSION, "r", encoding="utf-8") as fh:
        return Campaign.from_dict(json.load(fh)["spec"])


# -- generation ----------------------------------------------------------------


def test_generation_is_deterministic():
    for index in range(8):
        a = generate_spec(17, index)
        b = generate_spec(17, index)
        assert a == b
        assert a.to_dict() == b.to_dict()


def test_generation_varies_with_seed_and_index():
    specs = {json.dumps(generate_spec(seed, index).to_dict(), sort_keys=True)
             for seed in (1, 2) for index in range(6)}
    assert len(specs) == 12, "seed/index collisions in the generator"


def test_spec_round_trips_through_json():
    for index in range(8):
        spec = generate_spec(9, index)
        again = Campaign.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert again == spec


def test_generated_schedules_are_fair():
    """Every generated schedule obeys the generator's own fairness rules:
    faults land on the time grid, inside [earliest, duration - settle],
    crash faults only on WAL-backed deployments, store faults only on
    links/nodes the deployment actually activates."""
    for index in range(30):
        spec = generate_spec(23, index)
        assert spec.faults
        active_links = {STORE_LINK[i]
                        for i in range(spec.num_shards * spec.chain_length)}
        for fault in spec.faults:
            assert fault.time_us % TIME_GRID_US == 0
            assert EARLIEST_FAULT_US <= fault.time_us
            assert fault.time_us <= spec.duration_us - SETTLE_BEFORE_END_US
            if fault.kind in ("crash_store", "recover_store_from_disk"):
                assert spec.store_backend == "wal"
            link = fault.param_dict.get("link")
            if link in STORE_LINK.values():
                assert link in active_links


def test_generated_schedules_validate_and_pass():
    # The reference protocol must ride out a generated schedule: this is
    # the fuzzer's PASS direction on two arbitrary points.
    for index in (0, 1):
        spec = generate_spec(5, index)
        result = run_spec(spec)
        assert result.report["verdict"] == "PASS"
        assert result.schedule.log  # faults actually fired


# -- witnesses -----------------------------------------------------------------


def test_witness_coverage_is_subset_semantics():
    lin = ViolationWitness(kinds=("NonLinearizable",))
    both = ViolationWitness(kinds=("NoProgress", "NonLinearizable"))
    empty = ViolationWitness(kinds=())
    assert both.covers(lin)
    assert not lin.covers(both)
    assert lin.covers(empty)
    assert not empty.covers(lin)
    assert not empty and lin and both


def test_witness_from_report_classifies_failures():
    report = {
        "invariants": {"violations": [
            {"invariant": "SingleOwner", "detail": "two owners"},
            {"invariant": "SingleOwner", "detail": "again"},
        ]},
        "linearizable": False,
        "linearizability_search_exhausted": False,
        "traffic": {"delivered": 0},
    }
    witness = ViolationWitness.from_report(report)
    assert witness.kinds == ("NoProgress", "NonLinearizable", "SingleOwner")
    assert dict(witness.first_details)["SingleOwner"] == "two owners"
    exhausted = ViolationWitness.from_report(
        {"linearizable": False, "linearizability_search_exhausted": True})
    assert exhausted.kinds == ("LinSearchExceeded",)


# -- shrinking -----------------------------------------------------------------


def test_units_pair_faults_with_their_clears():
    faults = (
        FaultSpec.make("fail_link", 1_000.0, link=3),
        FaultSpec.make("expire_leases", 2_000.0),
        FaultSpec.make("recover_link", 5_000.0, link=3),
        FaultSpec.make("impair_link", 6_000.0, link=4, corrupt_rate=0.1),
        FaultSpec.make("clear_link", 9_000.0, link=4),
    )
    units = _units(faults)
    kinds = [tuple(f.kind for f in unit) for unit in units]
    assert ("fail_link", "recover_link") in kinds
    assert ("impair_link", "clear_link") in kinds
    assert ("expire_leases",) in kinds
    assert len(units) == 3


def test_units_attach_clear_to_nearest_open_fault():
    faults = (
        FaultSpec.make("fail_link", 1_000.0, link=3),
        FaultSpec.make("fail_link", 2_000.0, link=3),
        FaultSpec.make("recover_link", 3_000.0, link=3),
    )
    units = _units(faults)
    assert len(units) == 2
    # The clear undoes the *latest* open fault on its target.
    paired = next(u for u in units if len(u) == 2)
    assert paired[0].time_us == 2_000.0


def test_shrinking_the_committed_reproducer_is_a_fixpoint():
    spec = _minimal_spec()
    witness = ViolationWitness(kinds=("NonLinearizable",))
    shrunk = shrink_spec(spec, witness, bug="skip_hold_dedup", budget=30)
    assert shrunk.witness.covers(witness)
    assert len(shrunk.spec.faults) == len(spec.faults) == 3
    assert shrunk.runs_used <= 30


# -- mutations and the engine bugs they revert ---------------------------------


def test_mutation_registry_and_guard():
    assert {"skip_store_dedup", "skip_hold_dedup",
            "skip_lease_install_guard"} <= set(MUTATIONS)
    assert not mutation_active("skip_hold_dedup")
    with seeded_bug("skip_hold_dedup"):
        assert mutation_active("skip_hold_dedup")
    assert not mutation_active("skip_hold_dedup")
    with pytest.raises(KeyError):
        with seeded_bug("not_a_mutation"):
            pass


def test_hold_dedup_guard_is_load_bearing():
    """The duplicate-storm reproducer only passes because the engine
    drops re-delivered lease-ack piggybacks: the clean run must show the
    dedup firing, and reverting it must break linearizability."""
    spec = _minimal_spec()
    clean = run_spec(spec)
    assert clean.report["verdict"] == "PASS"
    assert clean.metrics.total("redplane.piggyback_dups_dropped") > 0
    mutated = spec_witness(spec, bug="skip_hold_dedup")
    assert "NonLinearizable" in mutated.kinds


# -- the fuzz loop and self-check ----------------------------------------------


def test_run_fuzz_report_shape_and_determinism():
    a = run_fuzz(seed=5, budget=2, shrink_violations=False)
    b = run_fuzz(seed=5, budget=2, shrink_violations=False)
    assert a == b
    assert a["kind"] == "chaos-fuzz-report"
    assert a["schedules_run"] == 2
    assert a["violations"] == []
    scorecard = a["scorecard"]
    assert scorecard["schedules_run"] == 2
    assert scorecard["schedules_violated"] == 0
    for entry in scorecard["fault_classes"].values():
        assert entry["schedules"] >= 1
        assert entry["faults"] >= entry["schedules"]


def test_mutation_self_check_end_to_end():
    """The acceptance bar: with the seeded bug the fuzzer finds a
    linearizability violation and shrinks it to <= 3 faults; without it
    the same schedules all pass; verdicts are byte-stable."""
    report = mutation_self_check(seed=5, budget=24, bug="skip_hold_dedup")
    assert report["ok"], report.get("reason")
    assert report["found_linearizability_violation"]
    assert report["minimal_faults"] <= 3
    assert report["clean_violations"] == []
    assert report["deterministic"]


def test_regression_payload_prefers_minimal_spec():
    entry = {
        "index": 4,
        "spec": {"name": "big"},
        "witness": {"kinds": ["NonLinearizable"]},
        "minimal": {"spec": {"name": "small"},
                    "witness": {"kinds": ["NonLinearizable"]},
                    "faults": 2, "runs_used": 9},
    }
    payload = regression_payload(entry, seed=5, bug="skip_hold_dedup")
    assert payload["kind"] == "chaos-fuzz-regression"
    assert payload["spec"]["name"] == "small"
    assert payload["fuzzer"] == {"seed": 5, "index": 4,
                                 "mutation": "skip_hold_dedup"}


def test_replay_rejects_foreign_payloads():
    with pytest.raises(ValueError, match="not a chaos-fuzz regression"):
        replay_regression({"kind": "something-else"})


# -- CLI -----------------------------------------------------------------------


def test_cli_fuzz_run_writes_reproducers_and_scorecard(tmp_path, capsys):
    from repro.tools.runner import main as tools_main

    out_dir = tmp_path / "repros"
    scorecard = tmp_path / "scorecard.json"
    rc = tools_main([
        "fuzz", "run", "--seed", "5", "--budget", "1",
        "--out-dir", str(out_dir), "--scorecard", str(scorecard),
    ])
    assert rc == 0  # seed 5 index 0 is clean on the real protocol
    assert json.loads(scorecard.read_text())["schedules_run"] == 1
    assert list(out_dir.glob("*.json")) == []  # no violations, no files
    assert "schedules" in capsys.readouterr().out


def test_cli_fuzz_replay_committed_corpus(capsys):
    from repro.tools.runner import main as tools_main

    rc = tools_main(["fuzz", "replay", _REGRESSION])
    assert rc == 0
    assert "[ok]" in capsys.readouterr().out


def _bad_regression(tmp_path, case):
    """A regression file that must be refused before any run."""
    path = tmp_path / "bad.json"
    with open(_REGRESSION, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if case == "missing":
        return path
    if case == "not_json":
        path.write_text("{not json\n")
    elif case == "wrong_kind":
        payload["kind"] = "chaos-fuzz-report"
        path.write_text(json.dumps(payload))
    elif case == "bad_spec":  # a field no campaign has
        payload["spec"]["bogus"] = 1
        path.write_text(json.dumps(payload))
    else:  # a first fault (an impair_link) the run would reject
        field, value = {"negative_time": ("time_us", -5.0),
                        "nan_time": ("time_us", float("nan")),
                        "nan_jitter": ("jitter_us", float("nan"))}[case]
        payload["spec"]["faults"][0][field] = value
        path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("command", ["replay", "shrink"])
@pytest.mark.parametrize("case",
                         ["missing", "not_json", "wrong_kind", "bad_spec",
                          "negative_time", "nan_time", "nan_jitter"])
def test_cli_fuzz_refuses_an_unreadable_regression_file(
        tmp_path, capsys, command, case):
    """Exit 2 and one ``cannot read`` line, never a traceback: exit 1
    is ``replay``'s UNEXPECTED, and a corrupt corpus file is not one."""
    from repro.tools.runner import main as tools_main

    path = _bad_regression(tmp_path, case)
    assert tools_main(["fuzz", command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"fuzz {command}: cannot read {path}: ")
    assert captured.err.count("\n") == 1
