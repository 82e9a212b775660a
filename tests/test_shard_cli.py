"""The ``repro.tools shard`` subcommand and the merged multi-file watch."""

from __future__ import annotations

import json

import pytest

from repro.observe.heartbeat import snapshot_json
from repro.tools import main as tools_main


def _snap(t_us, label_hint=0):
    return {
        "t_us": t_us,
        "events": label_hint,
        "pending": 0,
        "events_per_sim_ms": 0.0,
        "queues": {"link_backlog_us": 0.0},
        "counters": {"retransmissions": 0, "acks_received": 0,
                     "lease_requests": 0, "store_recoveries": 0,
                     "link_drops": 0},
    }


def test_shard_plan_renders_assignment_table(capsys):
    assert tools_main(["shard", "plan", "nat", "--workers", "4"]) == 0
    out = capsys.readouterr().out
    assert "partition_class=flow_local" in out
    assert "% 4 -> owner worker" in out
    assert "state store : replicated chain on every worker" in out


def test_shard_plan_json_is_the_committed_artifact(capsys):
    assert tools_main(["shard", "plan", "nat", "--json"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["app"] == "nat"
    assert plan["format"] == 3
    assert plan["partition_key"]["fields"]


def test_shard_plan_unknown_app_fails(capsys):
    assert tools_main(["shard", "plan", "no_such_app"]) == 2
    assert "shard plan" in capsys.readouterr().err


def test_shard_diff_exit_code_reflects_identity(capsys):
    assert tools_main(["shard", "diff", "nat_quickstart",
                       "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "IDENTICAL" in out
    assert "DIFFERS" not in out


def test_shard_diff_holds_and_is_complete_when_a_ring_truncated(
        capsys, monkeypatch):
    """Nothing is read from the ring — the reference is hashed as it
    emits, the shards are merged from the recorder's log — so 128-record
    rings leave the run identical *and* complete."""
    from repro import Simulator
    from repro.shard import runner

    monkeypatch.setattr(
        runner, "_new_sim",
        lambda config: Simulator(seed=config.seed, trace_ring=128))
    assert tools_main(["shard", "diff", "nat_quickstart",
                       "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "DIFFERS" not in out
    assert "trace_complete  : identical" in out
    assert out.count("trace") == 2  # one trace axis, and trace_complete


@pytest.mark.parametrize("command", ["diff", "run"])
def test_merge_refusal_is_a_cli_error(capsys, command):
    """The durable campaign's shared WAL-size gauge differs between the
    replicas, so the merge refuses: one stderr line and exit 2, neither
    a traceback nor ``diff``'s DIFFERS exit 1."""
    assert tools_main(["shard", command,
                       "chaos:store_crash_recover_wal"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"shard {command}: cannot merge: ")
    assert err.count("\n") == 1


def test_shard_run_prints_merged_summary(capsys, tmp_path):
    assert tools_main(["shard", "run", "nat_quickstart", "--workers", "2",
                       "--save", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "nat_quickstart" in out
    assert "trace digest" in out
    saved = json.loads((tmp_path / "merged.json").read_text())
    assert saved["num_shards"] == 2
    assert saved["rng_draws"] == 0


def test_shard_run_json_mode(capsys):
    assert tools_main(["shard", "run", "nat_quickstart", "--workers", "2",
                       "--no-capture", "--json"]) == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["num_shards"] == 2
    assert "trace_digest" not in merged  # capture off: counts only


# -- merged multi-file watch ---------------------------------------------------


def test_watch_merges_shard_heartbeats_in_time_order(tmp_path, capsys):
    f0 = tmp_path / "heartbeat.shard0.ndjson"
    f1 = tmp_path / "heartbeat.shard1.ndjson"
    f0.write_text("".join(snapshot_json(_snap(t)) + "\n"
                          for t in (10_000.0, 30_000.0)))
    f1.write_text("".join(snapshot_json(_snap(t)) + "\n"
                          for t in (20_000.0, 40_000.0)))
    assert tools_main(["watch", str(f0), str(f1)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "source" in lines[0]
    labels = [line.split()[0] for line in lines[1:]]
    times = [line.split()[1] for line in lines[1:]]
    assert labels == ["shard0", "shard1", "shard0", "shard1"]
    assert times == ["10.0ms", "20.0ms", "30.0ms", "40.0ms"]


def test_watch_single_file_output_is_unchanged(tmp_path, capsys):
    """A one-file watch must not grow a label column."""
    f = tmp_path / "hb.ndjson"
    f.write_text(snapshot_json(_snap(10_000.0)) + "\n")
    assert tools_main(["watch", str(f)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("  sim time") or "sim time" in lines[0]
    assert not lines[0].lstrip().startswith("source")


def test_watch_merged_missing_file(tmp_path):
    f = tmp_path / "hb.ndjson"
    f.write_text(snapshot_json(_snap(1.0)) + "\n")
    assert tools_main(["watch", str(f), str(tmp_path / "nope.ndjson")]) == 2


def test_watch_merged_respects_max_lines(tmp_path, capsys):
    f0 = tmp_path / "heartbeat.a.ndjson"
    f1 = tmp_path / "heartbeat.b.ndjson"
    f0.write_text("".join(snapshot_json(_snap(t)) + "\n"
                          for t in (1_000.0, 3_000.0)))
    f1.write_text(snapshot_json(_snap(2_000.0)) + "\n")
    assert tools_main(["watch", str(f0), str(f1), "--max-lines", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # header + 2 snapshots
