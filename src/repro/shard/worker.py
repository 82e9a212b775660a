"""Forked shard workers and their report protocol.

Process mode (POSIX only): the parent forks one worker per shard, so
each starts from the parent's already-imported modules and its resolved
:class:`repro.shard.runner.ShardRunConfig` — nothing is re-imported or
re-resolved in the child. It connects each over a
``multiprocessing.Pipe`` and collects results. Workers never wait on
the parent or on each other: every shard runs the whole topology and
admits only its own flows, so there is nothing to synchronize (see
docs/SHARDING.md, "Why there is no clock synchronisation"). All
traffic is worker -> parent, one pickled ``(type, body)`` message per
frame of the pipe (:mod:`repro.shard.frames`): one ``PROGRESS`` per
``pace()`` boundary reached, finally ``RESULT`` (the shard result dict
as the worker built it) or ``ERROR``. The worker then closes its end
and exits; bytes written to a pipe outlive the writer's ``close``, so
the parent needs no acknowledgement to read them.

``PROGRESS`` is liveness only — it restarts the parent's stall clock
and is never answered or compared across shards.

The ghost run stays in the parent (it admits no flows and is cheap),
executed after every worker result is in.
"""

from __future__ import annotations

import multiprocessing
import threading
import traceback
from typing import Any, Dict, List, Optional

from repro.shard.frames import F_ERROR, F_PROGRESS, F_RESULT, FrameConn
from repro.shard.runner import ShardRunConfig, run_one_shard

#: The parent gives up when no worker has sent anything for this long:
#: "no shard reached a ``pace()`` boundary in 300 s". A worker that dies
#: is caught at once by its closed pipe; this bound is for one that is
#: alive but hung.
STALL_TIMEOUT_S = 300.0


def worker_main(conn: Any, config: ShardRunConfig, shard_index: int) -> None:
    """Worker process entry point: run one shard straight through."""
    fc = FrameConn(conn)
    try:
        def progress(now: float) -> None:
            fc.send(F_PROGRESS, {"shard": shard_index, "now": now})

        fc.send(F_RESULT, run_one_shard(config, shard_index,
                                        progress=progress))
    except Exception:
        try:
            fc.send(F_ERROR, {"error": traceback.format_exc()})
        except Exception:
            pass
    finally:
        fc.close()


def run_process_shards(config: ShardRunConfig) -> List[Dict[str, Any]]:
    """Fork one worker per shard and collect their results.

    Returns the shard results in shard order. A worker error or death
    tears the whole run down, naming the shard — a partial merge would
    be meaningless, so the surviving workers are not waited for. Refuses
    to fork while other threads are alive: a lock one of them holds
    would stay held forever in the child.
    """
    threads = threading.active_count()
    if threads > 1:
        raise RuntimeError(
            f"refusing to fork shard workers: {threads} threads are alive "
            "(threading.active_count()); process mode needs a "
            "single-threaded parent"
        )
    ctx = multiprocessing.get_context("fork")
    conns: List[Any] = []
    procs: List[Any] = []
    for index in range(config.workers):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=worker_main,
            args=(child_conn, config, index),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        conns.append(FrameConn(parent_conn))
        procs.append(proc)

    results: List[Optional[Dict[str, Any]]] = [None] * config.workers
    index_of = {id(fc._conn): i for i, fc in enumerate(conns)}
    try:
        pending = set(range(config.workers))
        while pending:
            ready = multiprocessing.connection.wait(
                [conns[i]._conn for i in sorted(pending)],
                timeout=STALL_TIMEOUT_S,
            )
            if not ready:
                raise RuntimeError(
                    f"shard workers stalled (pending: {sorted(pending)})"
                )
            for raw in ready:
                index = index_of[id(raw)]
                fc = conns[index]
                try:
                    ftype, body = fc.recv()
                except (EOFError, OSError) as exc:
                    # The worker closed its pipe without RESULT or ERROR:
                    # killed, or crashed before it could send anything.
                    procs[index].join(timeout=5.0)
                    raise RuntimeError(
                        f"shard worker {index} died before sending a "
                        f"result (exit code {procs[index].exitcode})"
                    ) from exc
                except ValueError as exc:
                    raise RuntimeError(
                        f"shard worker {index} sent a malformed frame: {exc}"
                    ) from exc
                if ftype == F_RESULT:
                    results[index] = body
                    pending.discard(index)
                elif ftype == F_ERROR:
                    raise RuntimeError(
                        f"shard worker {index} failed:\n"
                        f"{body.get('error', '?')}"
                    )
                # else PROGRESS: receiving it restarted the stall clock.
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
        for fc in conns:
            try:
                fc.close()
            except OSError:
                pass

    missing = [i for i, r in enumerate(results) if r is None]
    if missing:
        raise RuntimeError(f"no result from shard(s) {missing}")
    return results  # type: ignore[return-value]
