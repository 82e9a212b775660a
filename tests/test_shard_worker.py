"""Process mode: forked workers reporting over pipes, identical merge,
and the parent's typed errors for dead, torn, malformed and hung
workers."""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro import identity
from repro.scenarios import SCENARIOS, Scenario, run_nat_steady
from repro.shard import worker
from repro.shard.frames import F_PROGRESS, F_RESULT, FrameConn
from repro.shard.runner import resolve, run_identity, run_sharded

#: The real entry point. Forked children inherit the parent's
#: monkeypatches, so a stand-in that delegated to ``worker.worker_main``
#: would call itself.
_real_worker_main = worker.worker_main


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
    (Forked workers inherit the patch, so it refuses in the parent
    only.)"""
    parent = os.getpid()
    real_send = FrameConn.send

    def refuse(self, ftype, body):
        if os.getpid() == parent:
            raise AssertionError("the parent sent a frame")
        real_send(self, ftype, body)

    monkeypatch.setattr(FrameConn, "send", refuse)
    merged = run_sharded(resolve("nat_quickstart", 2), mode="process")
    assert merged["flows_per_shard"] and merged["rng_draws"] == 0
    assert multiprocessing.active_children() == []


def test_workers_run_the_parents_resolved_config(monkeypatch):
    """A worker runs the config object the parent resolved, not one it
    looks up again by name: a scenario that exists only in this process
    (registered at runtime, its driver a closure) shards in process mode
    and merges identical to its reference."""

    def three_flows(sim, pace, fastpath=False):
        return run_nat_steady(sim, pace, fastpath, flows=3)

    monkeypatch.setitem(SCENARIOS, "runtime_only_nat",
                        Scenario("runtime_only_nat", "nat", 5, three_flows))
    out = run_identity("runtime_only_nat", workers=2, mode="process")
    assert out["identical"], out["report"]
    assert out["merged"]["extra"]["flows"] == 3


def test_no_parent_state_leaks_into_a_worker():
    """Forked workers start from whatever the parent has run before.
    ``nat_steady`` in process mode, then inline, then again in process
    mode after an unrelated inline run: every fingerprint is the same
    on every axis."""
    first = run_sharded(resolve("nat_steady", 2), mode="process")
    inline = run_sharded(resolve("nat_steady", 2), mode="inline")
    run_sharded(resolve("nat_quickstart", 2), mode="inline")
    again = run_sharded(resolve("nat_steady", 2), mode="process")
    for other in (inline, again):
        report = identity.compare(first, other)
        assert all(report.values()), report


def test_a_threaded_parent_refuses_to_fork():
    """Forking while another thread is alive can leave the child stuck
    on a lock that thread held; the parent says so before any fork."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    thread.start()
    try:
        with pytest.raises(RuntimeError, match=r"2 threads are alive"):
            run_sharded(resolve("nat_quickstart", 2), mode="process")
    finally:
        stop.set()
        thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert multiprocessing.active_children() == []


def test_unknown_mode_is_rejected():
    config = resolve("nat_quickstart", 2)
    with pytest.raises(ValueError, match="mode"):
        run_sharded(config, mode="threads")


# Misbehaving stand-ins for ``worker.worker_main``; shard 0 stays a real
# worker.


def _stand_in(conn, config, shard_index):
    """Shard 1's frame connection; None for shard 0, which has run the
    real worker to completion."""
    if shard_index != 1:
        _real_worker_main(conn, config, shard_index)
        return None
    return FrameConn(conn)


def _dies_before_first_frame(conn, config, shard_index):
    if shard_index == 1:
        os._exit(3)
    _real_worker_main(conn, config, shard_index)


def _dies_mid_run(conn, config, shard_index):
    fc = _stand_in(conn, config, shard_index)
    if fc is not None:
        fc.send(F_PROGRESS, {"shard": 1, "now": 1_000.0})
        os._exit(3)


def _sends_torn_frame(conn, config, shard_index):
    if _stand_in(conn, config, shard_index) is not None:
        conn.send_bytes(b"\x00\x00")
        time.sleep(60.0)


def _sends_a_bare_list(conn, config, shard_index):
    if _stand_in(conn, config, shard_index) is not None:
        conn.send([F_RESULT, {}])
        time.sleep(60.0)


def _hangs_alive(conn, config, shard_index):
    if _stand_in(conn, config, shard_index) is not None:
        time.sleep(60.0)


def _slow_but_progressing(conn, config, shard_index):
    fc = _stand_in(conn, config, shard_index)
    if fc is not None:
        for tick in range(7):
            time.sleep(0.3)
            fc.send(F_PROGRESS, {"shard": 1, "now": float(tick)})
        _real_worker_main(conn, config, shard_index)


@pytest.mark.parametrize("target, message", [
    (_dies_before_first_frame, r"shard worker 1 died.*exit code 3"),
    (_dies_mid_run, r"shard worker 1 died.*exit code 3"),
    (_sends_torn_frame, r"shard worker 1 sent a malformed frame"),
    (_sends_a_bare_list, r"shard worker 1 sent a malformed frame.*pair"),
], ids=["_dies_before_first_frame", "_dies_mid_run", "_sends_torn_frame",
        "_sends_a_bare_list"])
def test_dead_worker_is_named_promptly(monkeypatch, target, message):
    """A worker that closes its pipe without RESULT or ERROR, or sends
    bytes that do not unpickle or a message that is not a ``(type,
    dict)`` pair, is a typed error naming the shard (and its exit code or
    what was wrong with the message), within seconds — not a bare EOFError or
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
