"""Randomized fault-schedule fuzzing.

The named campaigns of :mod:`repro.chaos.campaigns` sample a few points
of the reachable fault space; the fuzzer *generates* points. A fuzz run
is seeded and fully deterministic: schedule ``(seed, index)`` is always
the same :class:`~repro.chaos.campaigns.Campaign` — same topology
shape, same workload pacing, same fault tuple, same simulator seed — so
any violation it finds is replayable from two integers.

Layers:

* :func:`generate_spec` — the schedule generator. It draws fault groups
  from a weighted menu of composable patterns (switch failover, link
  flaps, gray links, duplicate+jitter storms on the store path,
  asymmetric partitions, store degradation/failover/crash, forced lease
  expiry) and keeps every schedule *fair*: fault windows close well
  before the drain, every fail has a matching recovery, crash faults
  only target WAL-backed stores, and impairment knobs stay inside the
  protocol's operating envelope (see docs/FAULTS.md).
* :func:`run_spec` / :func:`run_fuzz` — execute one campaign under its
  own ``sim_seed`` or a budgeted sweep under the always-on auditors,
  optionally with a seeded bug from :mod:`repro.mutation` enabled,
  shrinking every violation to a minimal reproducer and pooling a
  per-fault-class resilience scorecard.
* :func:`mutation_self_check` — the fuzzer fuzzing itself: with a
  seeded bug enabled it must find a violation and shrink it within a
  bounded budget; with the bug disabled the same schedules must all
  pass; and both verdicts must be byte-stable across repeat runs.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple

from repro import mutation
from repro.chaos.campaigns import (
    FABRIC_LINKS,
    STORE_LINK,
    STORE_NODE,
    Campaign,
)
from repro.chaos.runner import RunResult, run_campaign_result, verdict_json
from repro.model.witness import ViolationWitness
from repro.workloads.failures import FaultSpec

#: Deployment shapes the generator draws from (num_shards, chain_length);
#: the testbed has three physical store nodes.
SHAPES: Tuple[Tuple[int, int], ...] = ((1, 3), (1, 3), (1, 2), (1, 1), (2, 1))

#: Faults never start before this (let the first lease settle) ...
EARLIEST_FAULT_US = 50_000.0
#: ... and every fault window closes at least this long before the main
#: phase ends, so verdicts measure recovery, not mid-fault state.
SETTLE_BEFORE_END_US = 300_000.0

#: All generated times snap to this grid (keeps shrinking's time search
#: finite and reproducer files readable).
TIME_GRID_US = 1_000.0


# -- schedule generation -------------------------------------------------------


def _grid(rng: random.Random, lo: float, hi: float) -> float:
    """A grid-snapped time drawn uniformly from [lo, hi]."""
    if hi < lo:
        hi = lo
    steps = int((hi - lo) / TIME_GRID_US)
    return lo + rng.randint(0, max(steps, 0)) * TIME_GRID_US


def _active_store(rng: random.Random, num_shards: int,
                  chain_length: int) -> int:
    return rng.randrange(num_shards * chain_length)


def _gen_switch_failover(rng, ctx) -> List[FaultSpec]:
    switch = rng.choice(("agg1", "agg2"))
    start = _grid(rng, EARLIEST_FAULT_US, ctx["last_us"] - 150_000.0)
    down = _grid(rng, 150_000.0, min(400_000.0, ctx["last_us"] - start))
    return [FaultSpec.make("fail_switch", start, switch=switch),
            FaultSpec.make("recover_switch", start + down, switch=switch)]


def _gen_link_flap(rng, ctx) -> List[FaultSpec]:
    link = rng.choice(FABRIC_LINKS)
    flaps = rng.randint(1, 3)
    period = _grid(rng, 100_000.0, 200_000.0)
    start = _grid(rng, EARLIEST_FAULT_US, ctx["last_us"] - flaps * period)
    # Half a grid-snapped period can land off-grid; re-snap so every
    # generated time honours TIME_GRID_US (no extra RNG draws — the
    # seed->schedule mapping of other groups must not shift).
    half = round(period / 2 / TIME_GRID_US) * TIME_GRID_US
    out: List[FaultSpec] = []
    for i in range(flaps):
        down_at = start + i * period
        out.append(FaultSpec.make("fail_link", down_at, link=link))
        out.append(FaultSpec.make("recover_link", down_at + half, link=link))
    return out


def _gen_gray_link(rng, ctx) -> List[FaultSpec]:
    # Classic gray failure: corruption/loss with small jitter, on a
    # fabric link or the active store path; routing never reacts.
    if rng.random() < 0.5:
        link = rng.choice(FABRIC_LINKS)
    else:
        link = STORE_LINK[_active_store(rng, ctx["num_shards"],
                                        ctx["chain_length"])]
    start = _grid(rng, EARLIEST_FAULT_US, ctx["last_us"] - 150_000.0)
    window = _grid(rng, 150_000.0, min(500_000.0, ctx["last_us"] - start))
    return [
        FaultSpec.make("impair_link", start, link=link,
                       corrupt_rate=round(rng.uniform(0.02, 0.15), 3),
                       drop_rate=round(rng.uniform(0.0, 0.05), 3),
                       jitter_us=float(rng.randint(0, 30))),
        FaultSpec.make("clear_link", start + window, link=link),
    ]


def _gen_dup_jitter_storm(rng, ctx) -> List[FaultSpec]:
    # Duplicate + heavy-jitter storm on the store access link: delayed
    # duplicates of old writes land after newer ones, stressing the §5.2
    # stale-write guard hard. Jitter stays below the protocol's operating
    # envelope (see docs/FAULTS.md) so the reference protocol must ride
    # it out.
    link = STORE_LINK[_active_store(rng, ctx["num_shards"],
                                    ctx["chain_length"])]
    start = _grid(rng, EARLIEST_FAULT_US, ctx["last_us"] - 200_000.0)
    window = _grid(rng, 200_000.0, min(500_000.0, ctx["last_us"] - start))
    out = [
        FaultSpec.make("impair_link", start, link=link,
                       duplicate_rate=round(rng.uniform(0.2, 0.35), 2),
                       jitter_us=float(rng.randint(4, 6) * 1_000)),
        FaultSpec.make("clear_link", start + window, link=link),
    ]
    # Force lease expiries inside the storm: a lease re-acquired while
    # delayed duplicates are still in flight is the way stale store
    # state gets surfaced back into a switch. Parameters sit inside the
    # protocol's operating envelope (see docs/FAULTS.md) — harsher
    # jitter breaks even the reference protocol.
    for _ in range(rng.randint(2, 4)):
        out.append(FaultSpec.make(
            "expire_leases", _grid(rng, start, start + window)))
    return out


def _gen_partition(rng, ctx) -> List[FaultSpec]:
    idx = _active_store(rng, ctx["num_shards"], ctx["chain_length"])
    link = STORE_LINK[idx]
    start = _grid(rng, EARLIEST_FAULT_US, ctx["last_us"] - 100_000.0)
    window = _grid(rng, 100_000.0, min(250_000.0, ctx["last_us"] - start))
    # 70% asymmetric (the store's egress blackholes: requests arrive,
    # acks vanish), otherwise a full bidirectional partition.
    from_node = STORE_NODE[idx] if rng.random() < 0.7 else None
    extra = {"from_node": from_node} if from_node else {}
    return [FaultSpec.make("impair_link", start, link=link, blocked=True,
                           **extra),
            FaultSpec.make("clear_link", start + window, link=link, **extra)]


def _gen_lease_expiry(rng, ctx) -> List[FaultSpec]:
    return [
        FaultSpec.make("expire_leases",
                       _grid(rng, 100_000.0, ctx["last_us"]))
        for _ in range(rng.randint(1, 3))
    ]


def _gen_store_degrade(rng, ctx) -> List[FaultSpec]:
    idx = _active_store(rng, ctx["num_shards"], ctx["chain_length"])
    start = _grid(rng, EARLIEST_FAULT_US, ctx["last_us"] - 100_000.0)
    window = _grid(rng, 100_000.0, min(400_000.0, ctx["last_us"] - start))
    return [
        FaultSpec.make("degrade_store", start, index=idx,
                       proc_delay_us=float(rng.randint(2, 8) * 1_000),
                       service_time_us=float(rng.randint(0, 4) * 100)),
        FaultSpec.make("restore_store", start + window, index=idx),
    ]


def _gen_store_failover(rng, ctx) -> List[FaultSpec]:
    idx = _active_store(rng, ctx["num_shards"], ctx["chain_length"])
    start = _grid(rng, EARLIEST_FAULT_US, ctx["last_us"] - 150_000.0)
    down = _grid(rng, 150_000.0, min(350_000.0, ctx["last_us"] - start))
    return [FaultSpec.make("fail_store", start, index=idx),
            FaultSpec.make("recover_store", start + down, index=idx)]


def _gen_store_crash(rng, ctx) -> List[FaultSpec]:
    # Only generated for WAL-backed deployments: on the volatile backend
    # a crash is genuine data loss and the run would rightly FAIL.
    idx = _active_store(rng, ctx["num_shards"], ctx["chain_length"])
    start = _grid(rng, EARLIEST_FAULT_US, ctx["last_us"] - 150_000.0)
    down = _grid(rng, 100_000.0, min(300_000.0, ctx["last_us"] - start))
    return [FaultSpec.make("crash_store", start, index=idx),
            FaultSpec.make("recover_store_from_disk", start + down,
                           index=idx)]


#: (weight, needs_wal, generator) rows of the fault-group menu.
_MENU: Tuple[Tuple[int, bool, Callable], ...] = (
    (3, False, _gen_switch_failover),
    (2, False, _gen_link_flap),
    (3, False, _gen_gray_link),
    (3, False, _gen_dup_jitter_storm),
    (2, False, _gen_partition),
    (3, False, _gen_lease_expiry),
    (1, False, _gen_store_degrade),
    (2, False, _gen_store_failover),
    (2, True, _gen_store_crash),
)


def generate_spec(fuzz_seed: int, index: int) -> Campaign:
    """Deterministically generate schedule ``index`` of seed ``fuzz_seed``.

    The derived RNG is seeded from a string, which Python hashes with
    SHA-512 — stable across processes, platforms, and PYTHONHASHSEED.
    """
    rng = random.Random(f"repro-chaos-fuzz/{fuzz_seed}/{index}")
    num_shards, chain_length = rng.choice(SHAPES)
    store_backend = "wal" if rng.random() < 0.3 else "memory"
    coordinator = chain_length > 1 and rng.random() < 0.6
    duration_us = rng.choice((1_200_000.0, 1_500_000.0))
    gap_us = float(rng.choice((4, 6, 8, 10, 12)) * 1_000)
    # Draw a traffic *span* and derive the packet count from it, so the
    # window in which faults can actually interact with load does not
    # shrink with the gap. Faults after the last packet are dead air.
    span_us = float(rng.choice((400, 500, 600, 700)) * 1_000)
    packets = max(30, int(span_us / gap_us))
    traffic_end_us = 10_000.0 + packets * gap_us
    lease_period_us = float(rng.choice((100, 150, 200)) * 1_000)
    ctx = {
        "num_shards": num_shards,
        "chain_length": chain_length,
        "last_us": min(duration_us - SETTLE_BEFORE_END_US, traffic_end_us),
    }

    menu = [(w, gen) for w, needs_wal, gen in _MENU
            if not needs_wal or store_backend == "wal"]
    weights = [w for w, _ in menu]
    faults: List[FaultSpec] = []
    hard_store_fault_used = False
    for _ in range(rng.randint(1, 3)):
        _, gen = rng.choices(menu, weights=weights, k=1)[0]
        if gen in (_gen_store_failover, _gen_store_crash):
            # A hard store fault needs a surviving chain replica, and two
            # overlapping ones could fail every replica of a shard (the
            # failover monitor rightly aborts the run). Substitute a
            # benign group rather than re-rolling, to keep generation a
            # pure function of the RNG stream.
            if chain_length < 2 or hard_store_fault_used:
                gen = _gen_lease_expiry
            else:
                hard_store_fault_used = True
        faults.extend(gen(rng, ctx))

    return Campaign(
        name=f"fuzz-s{fuzz_seed}-i{index}",
        sim_seed=rng.randint(0, 2**31 - 1),
        duration_us=duration_us,
        packets=packets,
        gap_us=gap_us,
        lease_period_us=lease_period_us,
        coordinator=coordinator,
        store_backend=store_backend,
        num_shards=num_shards,
        chain_length=chain_length,
        faults=tuple(faults),
    )


# -- execution -----------------------------------------------------------------


def run_spec(spec: Campaign,
             bug: Optional[str] = None,
             trace_path: Optional[str] = None,
             observe=None) -> RunResult:
    """Run one campaign under its own ``sim_seed`` (optionally with a
    seeded bug from :mod:`repro.mutation` enabled for the run's duration)
    and return the full result.

    ``observe`` takes a :class:`repro.observe.ObserveOptions`; the fuzz
    loop uses it to arm the health detectors so the scorecard can pool
    ``health.*`` detections per fault class."""
    with mutation.seeded_bug(bug) if bug is not None else nullcontext():
        return run_campaign_result(spec, seed=spec.sim_seed,
                                   trace_path=trace_path, observe=observe)


def spec_witness(spec: Campaign,
                 bug: Optional[str] = None) -> ViolationWitness:
    """Run a spec and distill its witness (empty witness == PASS)."""
    return ViolationWitness.from_report(run_spec(spec, bug=bug).report)


# -- the fuzz loop -------------------------------------------------------------


def run_fuzz(
    seed: int,
    budget: int,
    bug: Optional[str] = None,
    shrink_budget: int = 80,
    shrink_violations: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Fuzz ``budget`` schedules from ``seed``; shrink every violation.

    Returns a JSON-safe fuzz report: per-violation reproducers (original
    and minimized specs plus their witnesses) and the per-fault-class
    resilience scorecard. The report contains no wall-clock state, so
    identical (seed, budget, bug) invocations produce byte-identical
    reports.
    """
    from repro.chaos.scorecard import Scorecard
    from repro.chaos.shrink import shrink_spec
    from repro.observe import ObserveOptions

    emit = log if log is not None else (lambda _msg: None)
    scorecard = Scorecard()
    violations: List[Dict[str, object]] = []
    # Health detectors ride along on every fuzz run so the scorecard can
    # pool health.* detections per fault class. Shrink re-runs stay
    # unobserved: they only need witnesses, and health events are extra
    # trace records the delta-debugger would have to reproduce exactly.
    observe = ObserveOptions(health=True)
    for index in range(budget):
        spec = generate_spec(seed, index)
        result = run_spec(spec, bug=bug, observe=observe)
        witness = ViolationWitness.from_report(result.report)
        scorecard.add(spec, result, witness)
        if not witness:
            emit(f"[{index + 1}/{budget}] {spec.name}: PASS")
            continue
        emit(f"[{index + 1}/{budget}] {spec.name}: "
             f"VIOLATION {witness.describe()}")
        entry: Dict[str, object] = {
            "index": index,
            "spec": spec.to_dict(),
            "witness": witness.to_dict(),
        }
        if shrink_violations:
            shrunk = shrink_spec(spec, witness, bug=bug,
                                 budget=shrink_budget)
            entry["minimal"] = {
                "spec": shrunk.spec.to_dict(),
                "witness": shrunk.witness.to_dict(),
                "faults": len(shrunk.spec.faults),
                "runs_used": shrunk.runs_used,
            }
            emit(f"    shrunk {len(spec.faults)} -> "
                 f"{len(shrunk.spec.faults)} faults "
                 f"({shrunk.runs_used} runs)")
        violations.append(entry)

    return {
        "schema": 1,
        "kind": "chaos-fuzz-report",
        "seed": seed,
        "budget": budget,
        "mutation": bug,
        "schedules_run": budget,
        "violations": violations,
        "scorecard": scorecard.to_dict(),
    }


# -- regression files ----------------------------------------------------------


def regression_payload(entry: Dict[str, object], seed: int,
                       bug: Optional[str]) -> Dict[str, object]:
    """The replayable regression-campaign file for one fuzz violation."""
    minimal = entry.get("minimal")
    spec = minimal["spec"] if minimal else entry["spec"]  # type: ignore[index]
    witness = minimal["witness"] if minimal else entry["witness"]  # type: ignore[index]
    return {
        "schema": 1,
        "kind": "chaos-fuzz-regression",
        "fuzzer": {
            "seed": seed,
            "index": entry["index"],
            "mutation": bug,
        },
        "witness": witness,
        "spec": spec,
    }


def replay_regression(payload: Dict[str, object]) -> Dict[str, object]:
    """Replay a regression file; report whether it still reproduces.

    The recorded mutation (if any) is re-enabled for the replay: a
    regression minted by the mutation self-check documents the fuzzer's
    detection power, and replaying it proves that power is still there.
    A regression recorded against the *real* protocol (no mutation) is
    expected to be clean once the underlying bug is fixed.
    """
    if payload.get("kind") != "chaos-fuzz-regression":
        raise ValueError(
            f"not a chaos-fuzz regression file (kind={payload.get('kind')!r})")
    spec = Campaign.from_dict(payload["spec"])  # type: ignore[arg-type]
    recorded = ViolationWitness.from_dict(payload["witness"])  # type: ignore[arg-type]
    bug = payload["fuzzer"].get("mutation")  # type: ignore[union-attr]
    result = run_spec(spec, bug=bug)
    witness = ViolationWitness.from_report(result.report)
    return {
        "spec": spec.to_dict(),
        "mutation": bug,
        "recorded_witness": recorded.to_dict(),
        "replayed_witness": witness.to_dict(),
        "reproduces": witness.covers(recorded),
        "verdict": result.report["verdict"],
        "verdict_json": verdict_json(result.report),
    }


# -- the fuzzer fuzzing itself -------------------------------------------------


def mutation_self_check(
    seed: int = 1,
    budget: int = 20,
    bug: str = "skip_hold_dedup",
    shrink_budget: int = 80,
    max_minimal_faults: int = 3,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Prove the fuzzer's detection power with a seeded bug.

    Requirements (any miss marks the check failed):

    1. with ``bug`` enabled, some schedule in the budget produces a
       violation whose witness includes a linearizability break;
    2. the shrinker reduces it to at most ``max_minimal_faults`` faults
       within ``shrink_budget`` oracle runs;
    3. with the bug disabled, every schedule in the budget passes;
    4. the found schedule's verdict report is byte-identical across two
       runs (full determinism).
    """
    from repro.chaos.shrink import shrink_spec

    emit = log if log is not None else (lambda _msg: None)
    found_index: Optional[int] = None
    found_witness: Optional[ViolationWitness] = None
    found_lin = False
    for index in range(budget):
        spec = generate_spec(seed, index)
        witness = spec_witness(spec, bug=bug)
        if witness:
            has_lin = "NonLinearizable" in witness.kinds
            emit(f"[mutated {index + 1}/{budget}] {spec.name}: "
                 f"VIOLATION {witness.describe()}")
            if found_index is None or (has_lin and not found_lin):
                found_index, found_witness = index, witness
                found_lin = has_lin
            if found_lin:
                break
        else:
            emit(f"[mutated {index + 1}/{budget}] {spec.name}: pass")

    report: Dict[str, object] = {
        "schema": 1,
        "kind": "chaos-fuzz-self-check",
        "seed": seed,
        "budget": budget,
        "mutation": bug,
        "found": found_index is not None,
        "found_index": found_index,
        "found_linearizability_violation": found_lin,
    }
    if found_index is None or found_witness is None:
        report["ok"] = False
        report["reason"] = "mutated sweep produced no violation"
        return report

    spec = generate_spec(seed, found_index)
    shrunk = shrink_spec(spec, found_witness, bug=bug, budget=shrink_budget)
    emit(f"shrunk {len(spec.faults)} -> {len(shrunk.spec.faults)} faults "
         f"in {shrunk.runs_used} runs: {shrunk.witness.describe()}")
    report["minimal_faults"] = len(shrunk.spec.faults)
    report["shrink_runs_used"] = shrunk.runs_used
    report["minimal"] = {
        "spec": shrunk.spec.to_dict(),
        "witness": shrunk.witness.to_dict(),
    }

    clean_violations: List[int] = []
    for index in range(budget):
        if spec_witness(generate_spec(seed, index), bug=None):
            clean_violations.append(index)
    report["clean_violations"] = clean_violations
    emit(f"clean sweep: {budget - len(clean_violations)}/{budget} pass")

    first = verdict_json(run_spec(spec, bug=bug).report)
    second = verdict_json(run_spec(spec, bug=bug).report)
    report["deterministic"] = first == second

    ok = (
        found_lin
        and len(shrunk.spec.faults) <= max_minimal_faults
        and not clean_violations
        and report["deterministic"]
    )
    report["ok"] = bool(ok)
    if not ok:
        reasons = []
        if not found_lin:
            reasons.append("no linearizability violation found")
        if len(shrunk.spec.faults) > max_minimal_faults:
            reasons.append(
                f"minimal reproducer has {len(shrunk.spec.faults)} faults "
                f"(> {max_minimal_faults})")
        if clean_violations:
            reasons.append(
                f"clean sweep violated at indices {clean_violations}")
        if not report["deterministic"]:
            reasons.append("verdict not byte-stable across runs")
        report["reason"] = "; ".join(reasons)
    return report
