"""Spawned-process shard workers and their frame protocol.

Process mode: the parent spawns one worker per shard (``spawn`` context
— a fresh interpreter, so bootstrap state must be picklable JSON
scalars, see :class:`ShardSpec`), connects each over a
``multiprocessing.Pipe``, and collects results. Workers never wait on
the parent or on each other: every shard runs the whole topology and
admits only its own flows, so there is nothing to synchronize (see
docs/SHARDING.md, "Why there is no clock synchronisation"). All
traffic is length-prefixed frames (:mod:`repro.shard.frames`):

worker -> parent: ``HELLO``, one ``PROGRESS`` per ``pace()`` boundary
reached, finally ``RESULT`` (the full shard result) or ``ERROR``;
parent -> worker: ``BYE`` after the result.

``PROGRESS`` is liveness only — it restarts the parent's stall clock
and is never answered or compared across shards.

The ghost run stays in the parent (it admits no flows and is cheap),
executed after every worker result is in.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.shard.frames import (
    F_BYE,
    F_ERROR,
    F_HELLO,
    F_PROGRESS,
    F_RESULT,
    FrameConn,
)

#: The parent gives up when no worker has framed anything for this long:
#: "no shard reached a ``pace()`` boundary in 300 s". A worker that dies
#: is caught at once by its closed pipe; this bound is for one that is
#: alive but hung.
STALL_TIMEOUT_S = 300.0


@dataclass
class ShardSpec:
    """Picklable worker bootstrap: nothing but JSON scalars.

    The spawn context re-imports everything in the child, so the spec
    carries names and numbers, never live objects — the worker rebuilds
    scenario, plan-derived key fields, and recorder from these.
    """

    scenario: str
    shard_index: int
    num_shards: int
    seed: int
    key_fields: List[str]
    pinned: bool
    fastpath: bool = False
    capture: bool = True
    heartbeat_dir: Optional[str] = None
    heartbeat_interval_us: float = 1_000.0
    params: Dict[str, Any] = field(default_factory=dict)


def worker_main(conn: Any, spec_dict: Dict[str, Any]) -> None:
    """Worker process entry point: run one shard straight through."""
    spec = ShardSpec(**spec_dict)
    fc = FrameConn(conn)
    try:
        from repro.shard.runner import ShardRunConfig, run_one_shard
        from repro.shard.scenarios import get_scenario

        fc.send(F_HELLO, {
            "shard": spec.shard_index, "scenario": spec.scenario,
        })
        config = ShardRunConfig(
            scenario=get_scenario(spec.scenario),
            workers=spec.num_shards,
            plan={},
            key_fields=list(spec.key_fields),
            pinned=spec.pinned,
            pin_reason="",
            seed=spec.seed,
            fastpath=spec.fastpath,
            capture=spec.capture,
            heartbeat_dir=spec.heartbeat_dir,
            heartbeat_interval_us=spec.heartbeat_interval_us,
            params=dict(spec.params),
        )

        def progress(now: float) -> None:
            fc.send(F_PROGRESS, {"shard": spec.shard_index, "now": now})

        result = run_one_shard(config, spec.shard_index, progress=progress)
        fc.send(F_RESULT, result)
        fc.recv_expect(F_BYE)
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
        spec = ShardSpec(
            scenario=config.scenario.name,
            shard_index=index,
            num_shards=config.workers,
            seed=config.seed,
            key_fields=list(config.key_fields),
            pinned=config.pinned,
            fastpath=config.fastpath,
            capture=config.capture,
            heartbeat_dir=config.heartbeat_dir,
            heartbeat_interval_us=config.heartbeat_interval_us,
            params=dict(config.params),
        )
        proc = ctx.Process(
            target=worker_main, args=(child_conn, asdict(spec)),
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
                if ftype in (F_HELLO, F_PROGRESS):
                    # Receiving it already restarted the stall clock.
                    continue
                if ftype == F_RESULT:
                    results[index] = body
                    fc.send(F_BYE, {})
                    pending.discard(index)
                elif ftype == F_ERROR:
                    raise RuntimeError(
                        f"shard worker {index} failed:\n"
                        f"{body.get('error', '?')}"
                    )
                else:
                    raise RuntimeError(
                        f"unexpected frame type {ftype} from worker {index}"
                    )
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
