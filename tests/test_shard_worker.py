"""Process mode: spawned workers reporting over frames, identical merge,
and the parent's typed errors for dead, torn and hung workers."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.shard import worker
from repro.shard.frames import F_PROGRESS, FrameConn
from repro.shard.runner import ShardRunConfig, resolve, run_identity, run_sharded


def test_process_mode_is_byte_identical_to_the_reference():
    out = run_identity("nat_quickstart", workers=2, mode="process")
    report = out["report"]
    failed = [axis for axis, same in report.items() if not same]
    assert out["identical"], f"diverging axes: {failed}"
    assert out["merged"]["mode"] == "process"


def test_process_mode_matches_inline_mode():
    """Same scenario, both execution modes: the merged result is the
    same object either way (frames must not perturb anything)."""
    config = resolve("nat_steady", 2)
    inline = run_sharded(config, mode="inline")
    config2 = resolve("nat_steady", 2)
    proc = run_sharded(config2, mode="process")
    assert inline["trace_digest"] == proc["trace_digest"]
    assert inline["events"] == proc["events"]
    assert inline["flows_per_shard"] == proc["flows_per_shard"]


def test_parent_collects_results_without_sending_a_frame(monkeypatch):
    """The protocol is one-way: a worker exits right after RESULT and
    the parent reads it from the pipe with no handshake either side.
    (Spawned workers re-import the module, so only the parent is
    patched.)"""

    def refuse(self, ftype, body):
        raise AssertionError("the parent sent a frame")

    monkeypatch.setattr(FrameConn, "send", refuse)
    merged = run_sharded(resolve("nat_quickstart", 2), mode="process")
    assert merged["flows_per_shard"] and merged["rng_draws"] == 0
    assert multiprocessing.active_children() == []


def test_shard_spec_is_json_scalars_only():
    """What ``run_process_shards`` hands ``ctx.Process`` must stay
    picklable-by-value — names and numbers, never live objects — and be
    the run config's own field list plus the shard index."""
    import dataclasses
    import json

    config = resolve("nat_steady", 2, params={"flows": 3})
    spec = worker._bootstrap(config, 1)
    assert json.loads(json.dumps(spec)) == spec
    assert spec["scenario"] == "nat_steady" and spec["shard_index"] == 1
    assert spec["params"] == {"flows": 3}
    assert set(spec) - {"shard_index"} == {
        f.name for f in dataclasses.fields(ShardRunConfig)
    }


def test_unknown_mode_is_rejected():
    config = resolve("nat_quickstart", 2)
    with pytest.raises(ValueError, match="mode"):
        run_sharded(config, mode="threads")


# Spawned children unpickle the worker target by module path, so the
# misbehaving stand-ins live at module level here (importable as
# ``tests.test_shard_worker``); shard 0 stays a real worker.


def _stand_in(conn, spec_dict):
    """Shard 1's frame connection; None for shard 0, which has run the
    real worker to completion."""
    if spec_dict["shard_index"] != 1:
        worker.worker_main(conn, spec_dict)
        return None
    return FrameConn(conn)


def _dies_on_import(conn, spec_dict):
    if spec_dict["shard_index"] == 1:
        os._exit(3)
    worker.worker_main(conn, spec_dict)


def _dies_mid_run(conn, spec_dict):
    fc = _stand_in(conn, spec_dict)
    if fc is not None:
        fc.send(F_PROGRESS, {"shard": 1, "now": 1_000.0})
        os._exit(3)


def _sends_torn_frame(conn, spec_dict):
    if _stand_in(conn, spec_dict) is not None:
        conn.send_bytes(b"\x00\x00")
        time.sleep(60.0)


def _hangs_alive(conn, spec_dict):
    if _stand_in(conn, spec_dict) is not None:
        time.sleep(60.0)


def _slow_but_progressing(conn, spec_dict):
    fc = _stand_in(conn, spec_dict)
    if fc is not None:
        for tick in range(7):
            time.sleep(0.3)
            fc.send(F_PROGRESS, {"shard": 1, "now": float(tick)})
        worker.worker_main(conn, spec_dict)


@pytest.mark.parametrize("target, message", [
    (_dies_on_import, r"shard worker 1 died.*exit code 3"),
    (_dies_mid_run, r"shard worker 1 died.*exit code 3"),
    (_sends_torn_frame, r"shard worker 1 sent a malformed frame.*truncated"),
], ids=["_dies_on_import", "_dies_mid_run", "_sends_torn_frame"])
def test_dead_worker_is_named_promptly(monkeypatch, target, message):
    """A worker that closes its pipe without RESULT or ERROR, or frames
    garbage, is a typed error naming the shard (and its exit code or
    the codec's complaint), within seconds — not a bare EOFError or
    ValueError, and not the stall timeout."""
    monkeypatch.setattr(worker, "worker_main", target)
    config = resolve("nat_steady", 2)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=message):
        run_sharded(config, mode="process")
    assert time.monotonic() - started < 30.0
    assert multiprocessing.active_children() == []


def test_hung_but_alive_worker_trips_the_stall_detector(monkeypatch):
    """No frame from any pending worker for STALL_TIMEOUT_S is a typed
    error naming who is still pending, and the hung child is reaped."""
    monkeypatch.setattr(worker, "STALL_TIMEOUT_S", 1.5)
    monkeypatch.setattr(worker, "worker_main", _hangs_alive)
    config = resolve("nat_steady", 2)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=r"stalled.*pending: \[1\]"):
        run_sharded(config, mode="process")
    assert time.monotonic() - started < 30.0
    assert multiprocessing.active_children() == []


def test_progress_frames_keep_a_slow_worker_alive(monkeypatch):
    """A worker that takes longer than STALL_TIMEOUT_S overall but keeps
    reaching pace() boundaries is not stalled: each PROGRESS frame
    restarts the clock, and the run merges as usual."""
    monkeypatch.setattr(worker, "STALL_TIMEOUT_S", 1.5)
    monkeypatch.setattr(worker, "worker_main", _slow_but_progressing)
    config = resolve("nat_steady", 2)
    started = time.monotonic()
    merged = run_sharded(config, mode="process")
    assert time.monotonic() - started > 1.5
    assert merged["extra"]["packets"] == 480
