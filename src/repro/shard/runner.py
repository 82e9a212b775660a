"""Drive sharded runs: reference, inline shards, worker processes, merge.

Three drive modes share one scenario definition
(:mod:`repro.shard.scenarios`):

* **reference** — the plain single-process run, the bit-identity truth
  (its tracer feeds a :func:`repro.identity.watch` hasher, so its
  digest covers every record whatever the ring retains);
* **inline** — every shard (plus the ghost) runs sequentially in this
  process. Deterministic, debuggable, and the mode the identity tests
  use;
* **process** — shards run in spawned worker processes that report
  over length-prefixed frames (:mod:`repro.shard.worker`) — the mode
  ``python -m bench run`` times as ``flow_churn_shard2``.

In both sharded modes a shard is :func:`run_one_shard` running its
scenario straight through with ``sim.run(until=...)``: every shard
simulates the whole topology and admits only the flows its plan-checked
key hashes to it, so shards exchange nothing and need no clock protocol.

Every sharded entry point gates on the committed shard plan first:
:func:`repro.shard.plan.check_conformance` recomputes the plan from the
live code and refuses to shard on drift (launch-time RS408).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import identity
from repro.net.simulator import Simulator
from repro.shard import merge as merge_mod
from repro.shard import plan as plan_mod
from repro.shard.recorder import ShardRecorder
from repro.shard.scenarios import Scenario, get_scenario
from repro.telemetry import ScopedTimer


@dataclass
class ShardRunConfig:
    """Everything one sharded run needs, resolved up front."""

    scenario: Scenario
    workers: int
    plan: Dict[str, Any]
    key_fields: List[str]
    pinned: bool
    pin_reason: str
    seed: int
    fastpath: bool = False
    capture: bool = True
    heartbeat_dir: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)


def resolve(
    scenario_name: str,
    workers: int,
    seed: Optional[int] = None,
    fastpath: bool = False,
    capture: bool = True,
    heartbeat_dir: Optional[str] = None,
    root: Optional[str] = None,
    params: Optional[Dict[str, Any]] = None,
) -> ShardRunConfig:
    """Load scenario + plan and run the launch-time RS408 gate. Raises
    before any worker starts when the committed plan has drifted."""
    scenario = get_scenario(scenario_name)
    committed = plan_mod.check_conformance(scenario.app, root)
    # Every structure of a flow-partitioned plan is flow-local, so no
    # packet of one shard's flows ever needs state on another shard;
    # anything else pins all flows to shard 0.
    shardable, reason = plan_mod.shardability(committed)
    return ShardRunConfig(
        scenario=scenario,
        workers=workers,
        plan=committed,
        key_fields=plan_mod.key_fields(committed),
        pinned=not shardable,
        pin_reason="" if shardable else reason,
        seed=scenario.seed if seed is None else seed,
        fastpath=fastpath,
        capture=capture,
        heartbeat_dir=heartbeat_dir,
        params=dict(params or {}),
    )


def _new_sim(config: ShardRunConfig) -> Simulator:
    return Simulator(seed=config.seed)


#: Shard campaigns can finish their event activity in a few sim
#: milliseconds (the heartbeat only ticks while events execute), so the
#: observe layer's 10 ms default can yield an empty file.
_HEARTBEAT_INTERVAL_US = 1_000.0


def _attach_heartbeat(sim: Simulator, config: ShardRunConfig,
                      label: str) -> Optional[Any]:
    if config.heartbeat_dir is None:
        return None
    import os

    from repro.observe import HeartbeatEmitter

    os.makedirs(config.heartbeat_dir, exist_ok=True)
    path = os.path.join(config.heartbeat_dir, f"heartbeat.{label}.ndjson")
    emitter = HeartbeatEmitter(
        sim, interval_us=_HEARTBEAT_INTERVAL_US, path=path)
    sim.on_event = emitter.tick
    return emitter


def run_reference(config: ShardRunConfig) -> Dict[str, Any]:
    """The plain single-process run of the scenario (no recorder)."""
    sim = _new_sim(config)
    hasher = identity.watch(sim)
    heartbeat = _attach_heartbeat(sim, config, "reference")

    def pace(until: float) -> None:
        sim.run(until=until)

    with ScopedTimer("shard_reference") as timer:
        extra = config.scenario.fn(
            sim, pace, fastpath=config.fastpath, **config.params
        )
    if heartbeat is not None:
        heartbeat.close()
    result = identity.fingerprint(sim, hasher)
    result["wall_s"] = timer.elapsed_s
    result["extra"] = extra
    result["final_now"] = sim.now
    return result


def run_one_shard(
    config: ShardRunConfig,
    shard_index: int,
    ghost: bool = False,
    progress: Optional[Callable[[float], None]] = None,
) -> Dict[str, Any]:
    """Run one shard (or the ghost) to completion in this process.

    ``progress(now)`` is called after every ``pace()`` boundary the
    scenario reaches (the process-mode worker reports liveness with it);
    it observes the run and cannot steer it.
    """
    recorder = ShardRecorder(
        shard_index=0 if ghost else shard_index,
        num_shards=config.workers,
        key_fields=config.key_fields,
        pinned=config.pinned,
        ghost=ghost,
        capture_records=config.capture,
    )
    sim = _new_sim(config)
    recorder.attach(sim, config.seed)
    label = "ghost" if ghost else f"shard{shard_index}"
    heartbeat = _attach_heartbeat(sim, config, label)

    def pace(until: float) -> None:
        sim.run(until=until)
        if progress is not None:
            progress(sim.now)

    with ScopedTimer("shard_worker") as timer:
        extra = config.scenario.fn(
            sim, pace, fastpath=config.fastpath, **config.params
        )
    if heartbeat is not None:
        heartbeat.close()
    result = recorder.result()
    result["wall_s"] = timer.elapsed_s
    result["extra"] = extra
    return result


def run_sharded(
    config: ShardRunConfig,
    mode: str = "inline",
) -> Dict[str, Any]:
    """Run all shards plus the ghost and merge.

    Returns the merged result (see :func:`repro.shard.merge.merge_results`)
    plus per-shard wall times. ``mode`` is ``"inline"`` (sequential,
    this process) or ``"process"`` (spawned workers reporting frames).
    """
    if mode == "process":
        from repro.shard.worker import run_process_shards

        shard_results = run_process_shards(config)
    elif mode == "inline":
        shard_results = [
            run_one_shard(config, index) for index in range(config.workers)
        ]
    else:
        raise ValueError(f"unknown shard run mode {mode!r}")

    ghost = run_one_shard(config, 0, ghost=True)
    if config.capture:
        merged = merge_mod.merge_results(shard_results, ghost)
    else:
        merged = merge_mod.summary_results(shard_results, ghost)
    merged["mode"] = mode
    merged["scenario"] = config.scenario.name
    merged["app"] = config.plan.get("app")
    merged["pinned"] = config.pinned
    merged["pin_reason"] = config.pin_reason
    merged["seed"] = config.seed
    merged["wall_s_per_shard"] = [r["wall_s"] for r in shard_results]
    merged["wall_s_ghost"] = ghost["wall_s"]
    merged["wall_s_max_shard"] = max(r["wall_s"] for r in shard_results)
    merged["flows_per_shard"] = [r["flows_injected"] for r in shard_results]
    merged["extra"] = _merge_extra(shard_results, ghost)
    return merged


def _merge_extra(
    shard_results: List[Dict[str, Any]], ghost: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """Ghost-subtract the scenario's numeric return values.

    A scenario's extras are either counter-like (each shard contributes
    its owned flows' share, shared work appears on every replica — the
    standard ``sum - (N-1) * ghost`` identity) or lockstep constants
    (identical on every replica, where the identity degenerates to
    ``N*x - (N-1)*x = x``). Either way the subtraction reproduces the
    reference value. Non-numeric extras come from shard 0 verbatim.
    """
    first = shard_results[0].get("extra")
    if not isinstance(first, dict):
        return first
    replicas = len(shard_results)
    ghost_extra = ghost.get("extra") or {}
    out: Dict[str, Any] = {}
    for key, value in first.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            out[key] = value
            continue
        total = sum(
            r.get("extra", {}).get(key, 0) for r in shard_results
        )
        out[key] = total - (replicas - 1) * ghost_extra.get(key, 0)
    return out


def run_identity(
    scenario_name: str,
    workers: int = 2,
    fastpath: bool = False,
    mode: str = "inline",
    params: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Reference vs merged N-shard run; returns the axis-by-axis report.

    The axes are :func:`repro.identity.compare`'s; the contract
    additionally requires zero RNG draws — a shard that drew randomness
    saw a different draw sequence than the reference, so agreement
    would be coincidence, not construction.
    """
    config = resolve(scenario_name, workers, fastpath=fastpath, params=params)
    reference = run_reference(config)
    merged = run_sharded(config, mode=mode)
    report = identity.compare(reference, merged)
    report["rng_silent"] = merged["rng_draws"] == 0
    return {
        "scenario": scenario_name,
        "workers": workers,
        "mode": mode,
        "report": report,
        "identical": all(report.values()),
        "reference": reference,
        "merged": merged,
    }
