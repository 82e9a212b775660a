"""Spawned-process shard workers and their frame protocol.

Process mode: the parent spawns one worker per shard (``spawn`` context
— a fresh interpreter, so the bootstrap must be picklable JSON scalars,
see :func:`_bootstrap`), connects each over a ``multiprocessing.Pipe``,
and collects results. Workers never wait on the parent or on each
other: every shard runs the whole topology and admits only its own
flows, so there is nothing to synchronize (see docs/SHARDING.md, "Why
there is no clock synchronisation"). All traffic is worker -> parent,
in length-prefixed frames (:mod:`repro.shard.frames`): one ``PROGRESS``
per ``pace()`` boundary reached, finally ``RESULT`` (the full shard
result) or ``ERROR``. The worker then closes its end and exits; bytes
written to a pipe outlive the writer's ``close``, so the parent needs
no acknowledgement to read them.

``PROGRESS`` is liveness only — it restarts the parent's stall clock
and is never answered or compared across shards.

The ghost run stays in the parent (it admits no flows and is cheap),
executed after every worker result is in.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import traceback
from typing import Any, Dict, List, Optional

from repro.shard.frames import F_ERROR, F_PROGRESS, F_RESULT, FrameConn

#: The parent gives up when no worker has framed anything for this long:
#: "no shard reached a ``pace()`` boundary in 300 s". A worker that dies
#: is caught at once by its closed pipe; this bound is for one that is
#: alive but hung.
STALL_TIMEOUT_S = 300.0


def _bootstrap(config: Any, shard_index: int) -> Dict[str, Any]:
    """What a spawned worker is started with: the run config's own
    fields, with the live scenario replaced by its name and the plan
    (already consumed by ``resolve``) dropped, plus the shard index.
    Names and numbers only — the child re-imports everything else."""
    spec = {
        f.name: getattr(config, f.name) for f in dataclasses.fields(config)
    }
    spec.update(scenario=config.scenario.name, plan={},
                shard_index=shard_index)
    return spec


def worker_main(conn: Any, spec: Dict[str, Any]) -> None:
    """Worker process entry point: run one shard straight through."""
    fc = FrameConn(conn)
    try:
        from repro.shard.runner import ShardRunConfig, run_one_shard
        from repro.scenarios import get_scenario

        spec = dict(spec)
        shard_index = spec.pop("shard_index")
        spec["scenario"] = get_scenario(spec["scenario"])
        config = ShardRunConfig(**spec)

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


def run_process_shards(config: Any) -> List[Dict[str, Any]]:
    """Spawn one worker per shard and collect their results.

    ``config`` is a :class:`repro.shard.runner.ShardRunConfig`. Returns
    the shard results in shard order. A worker error or death tears the
    whole run down, naming the shard — a partial merge would be
    meaningless, so the surviving workers are not waited for.
    """
    ctx = multiprocessing.get_context("spawn")
    conns: List[Any] = []
    procs: List[Any] = []
    for index in range(config.workers):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=worker_main,
            args=(child_conn, _bootstrap(config, index)),
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
                    # killed, or crashed before it could frame anything.
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
