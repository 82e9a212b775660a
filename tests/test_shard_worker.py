"""Process mode: spawned workers, framed window sync, identical merge."""

from __future__ import annotations

import os
import time

import pytest

from repro.shard import worker
from repro.shard.frames import F_HELLO, F_WINDOW_GRANT, F_WINDOW_REQ, FrameConn
from repro.shard.runner import resolve, run_identity, run_sharded
from repro.shard.worker import ShardSpec


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


def test_shard_spec_is_json_scalars_only():
    """The spawn bootstrap must stay picklable-by-value: names and
    numbers, never live objects."""
    spec = ShardSpec(
        scenario="nat_steady", shard_index=0, num_shards=2, seed=5,
        key_fields=["ip.src"], pinned=False, lookahead_us=0.35,
        window_us=50_000.0,
    )
    import json

    from dataclasses import asdict

    round_tripped = json.loads(json.dumps(asdict(spec)))
    assert ShardSpec(**round_tripped) == spec


def test_unknown_mode_is_rejected():
    config = resolve("nat_quickstart", 2)
    with pytest.raises(ValueError, match="mode"):
        run_sharded(config, mode="threads")


# Spawned children unpickle the worker target by module path, so the
# dying stand-ins live at module level here (importable as
# ``tests.test_shard_worker``); shard 0 stays a real worker.


def _dies_on_import(conn, spec_dict):
    if spec_dict["shard_index"] == 1:
        os._exit(3)
    worker.worker_main(conn, spec_dict)


def _dies_mid_run(conn, spec_dict):
    if spec_dict["shard_index"] != 1:
        return worker.worker_main(conn, spec_dict)
    fc = FrameConn(conn)
    fc.send(F_HELLO, {"shard": 1, "scenario": spec_dict["scenario"]})
    fc.send(F_WINDOW_REQ, {"shard": 1, "now": 0.0, "target": 1_000.0})
    fc.recv_expect(F_WINDOW_GRANT)
    os._exit(3)


@pytest.mark.parametrize("target", [_dies_on_import, _dies_mid_run])
def test_dead_worker_is_named_promptly(monkeypatch, target):
    """A worker that closes its pipe without RESULT or ERROR is a typed
    error naming the shard and its exit code, within seconds — not a
    bare EOFError, and not the 300 s stall timeout."""
    monkeypatch.setattr(worker, "worker_main", target)
    config = resolve("nat_steady", 2)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=r"shard worker 1 died.*exit code 3"):
        run_sharded(config, mode="process")
    assert time.monotonic() - started < 30.0
