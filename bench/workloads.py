"""The six workloads: what runs, from which seed, and how it is checked.

A workload splits one repetition into three parts so the harness can time
them separately:

* ``inputs(seed, scale)`` — the benchmark's own generator. ``--seed`` is
  consumed here and nowhere else; ``repro`` only ever sees the generated
  packets / specs. Every generator is *work-preserving*: a different seed
  gives different inputs of the same size and shape, because the driver
  compares runs across seeds and a seed that changed the amount of work
  would read as noise (the fuzz seed alone moves ``chaos_fuzz`` by ±20 %).
* ``build(inputs)`` — the set-up, from "nothing built" to "first event
  ready to execute". This is what ``setup_s`` times.
* ``Built.run(mark)`` — the timed region, then ``Built.finish()`` reads
  the outputs (untimed) into an :class:`Outcome`. Inside the region the
  workload calls ``mark()`` at fixed points of *simulated* progress, which
  cuts the region into segments that do identical work in every repetition
  (the estimator takes each segment's best time, see ``estimator.py``).

Workloads are closed, run-to-completion batches: the simulator is a batch
program and offered load is simulated time, not wall time.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

NAT_FLOWS = 50
NAT_PACKETS_PER_FLOW = 500
NAT_SPACING_US = 2.0
#: Source ports are pinned: ECMP hashes them, and the two paths through the
#: fabric differ by a hop, so a seeded port base moves events_per_pkt by 3 %.
NAT_PORT_BASE = 5000
COUNTER_PACKETS = 3500
COUNTER_SPACING_US = 10.0
#: Counter arrivals jitter on a 1 us grid inside this many microseconds.
COUNTER_JITTER_US = 4
CHURN_PACKETS = 3000
CHURN_POPULATION = 1_000_000
FUZZ_CAMPAIGNS = 12
#: The fuzz seed is pinned; ``--seed`` orders the campaigns (see module doc).
FUZZ_SEED = 5
#: ``flow_churn_shard2`` may differ from ``flow_churn`` by this share of
#: translated packets (docs/SHARDING.md: control-plane contention is not
#: flow-local on ``million_flow``, so byte identity does not hold there).
SHARD_TRANSLATED_TOLERANCE = 0.005


@dataclass
class Outcome:
    """What one repetition produced, as the checks and metrics read it."""

    offered: int
    delivered: int
    events: int
    #: Fingerprint of the simulated result; equal across repetitions.
    digest: Dict[str, Any]
    #: Named correctness checks of this repetition (all must be true).
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Workload-specific diagnostics (deterministic values only).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Packets lost inside a fault the workload scripts on purpose. They
    #: are not failed operations: RedPlane may lose inputs under failure
    #: (paper §4.2); what it may not do is break an invariant.
    lost_by_design: int = 0

    @property
    def failed(self) -> int:
        if not all(self.checks.values()):
            return self.offered
        return self.offered - self.delivered - self.lost_by_design


#: Slices one ``run(until=...)`` stretch of a region is cut into, sized so
#: that a slice is about a millisecond of wall at full scale. When the host
#: is busy it takes the CPU away for a few milliseconds at a time; a segment
#: has to be shorter than that to be caught running at full speed at least
#: once in K + 1 tries.
SLICES = 2500
CHURN_SLICES = 1000
CAMPAIGN_SLICES = 100

Mark = Callable[[], None]


@dataclass
class Built:
    run: Callable[[Mark], Any]
    finish: Callable[[Any], Outcome]
    #: For a region the workload cannot mark from inside: cut its wall into
    #: segments afterwards, from what ``run`` returned.
    split: Optional[Callable[[Any, float], List[Any]]] = None


def run_sliced(run: Callable[..., None], now: float, until: float,
               mark: Mark, slices: int) -> None:
    """``run(until=until)`` cut at equal steps of simulated time, with a
    ``mark()`` after each step.

    ``run(until=t)`` executes exactly the events due by ``t``, so the
    slices execute the same events in the same order as one call (tests
    compare the digests).
    """
    step = (until - now) / slices
    for i in range(1, slices):
        run(until=now + step * i)
        mark()
    run(until=until)
    mark()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sim_digest(sim: Any) -> Dict[str, Any]:
    """Events, records emitted, trace-ring hash, metrics-snapshot hash.

    ``fastpath.*`` metric families are left out so a fast-path run and a
    reference run of the same packets compare equal.
    """
    ring = hashlib.sha256()
    for record in sim.tracer.tail():
        ring.update(repr((record.ts, record.type,
                          tuple(record.fields.items()))).encode())
    metrics = {
        kind: {k: v for k, v in values.items()
               if not k.startswith("fastpath.")}
        for kind, values in sim.metrics.snapshot().items()
    }
    return {
        "events": sim.events_executed,
        "records_emitted": sim.tracer.records_emitted,
        "trace_sha256": ring.hexdigest(),
        "metrics_sha256": _sha(json.dumps(metrics, sort_keys=True)),
    }


class Workload:
    """Base: subclasses set the class attributes and the three parts."""

    name = ""
    why = ""
    #: Layer that owns the traced region's root span.
    root_layer = "net.simulator"
    #: Traced runs normally install the wrappers before ``build`` so that
    #: bound methods captured at construction are the wrapped ones. Set
    #: when ``build`` must see the unwrapped classes instead.
    trace_build_first = False

    def inputs(self, seed: int, scale: float) -> Any:
        raise NotImplementedError

    def build(self, inputs: Any) -> Built:
        raise NotImplementedError

    def extra_checks(self, inputs: Any, outcome: Outcome) -> Dict[str, bool]:
        """Checks that need runs of other configurations. They are made once
        per run against the warm-up repetition's ``outcome``, after the
        timed repetitions and after the memory high-water mark is read."""
        return {}


# -- nat_steady_ref / nat_steady_fastpath ---------------------------------------


@dataclass(frozen=True)
class NatInputs:
    #: ``(time_us, source port)`` per packet, in schedule order.
    injections: Tuple[Tuple[float, int], ...]


class NatSteady(Workload):
    """RedPlane-NAT in steady state: the read-centric regime (Fig 8/12)."""

    def __init__(self, fastpath: bool) -> None:
        self.fastpath = fastpath
        self.name = "nat_steady_fastpath" if fastpath else "nat_steady_ref"
        self.why = (
            "same packets through the flow cache: a cache gain shows here "
            "and not on nat_steady_ref, a link gain shows on both"
            if fastpath else
            "read-centric NAT on the reference path: link hop, ASIC "
            "pipeline and leased forward do the work, the store almost none"
        )

    def inputs(self, seed: int, scale: float) -> NatInputs:
        rng = random.Random(f"bench/nat/{seed}")
        per_flow = max(4, int(NAT_PACKETS_PER_FLOW * scale))
        order = list(range(NAT_FLOWS))
        rng.shuffle(order)
        # One order for every round: a flow's packets stay NAT_FLOWS slots
        # apart, so its lease and NAT entry exist by its second packet.
        injections = []
        t = 0.0
        for _round in range(per_flow):
            for f in order:
                injections.append((t, NAT_PORT_BASE + f))
                t += NAT_SPACING_US
        return NatInputs(tuple(injections))

    def build(self, inputs: NatInputs, fastpath: Any = None) -> Built:
        from repro import Simulator, deploy
        from repro.apps.nat import NatApp, install_nat_routes
        from repro.fastpath.runtime import FastPath
        from repro.net.packet import Packet

        fastpath = self.fastpath if fastpath is None else fastpath
        sim = Simulator(seed=0)
        dep = deploy(sim, NatApp)
        install_nat_routes(dep.bed)
        if fastpath:
            FastPath.install(sim)
        sender = dep.bed.servers[0]
        external = dep.bed.externals[0]
        dst_ip = external.ip

        def send(sport: int) -> None:
            sender.send(Packet.udp(sender.ip, dst_ip, sport, 7777))

        for t, sport in inputs.injections:
            sim.schedule_at(t, send, sport)

        def finish(_ret: Any) -> Outcome:
            apps = {id(e.app): e.app for e in dep.engines.values()}
            translated = sum(a.translated_out for a in apps.values())
            outcome = Outcome(
                offered=len(inputs.injections),
                delivered=external.rx_packets,
                events=sim.events_executed,
                digest=sim_digest(sim),
                extra={"translated": translated},
            )
            outcome.checks["all_translated"] = translated == outcome.offered
            return outcome

        def run(mark: Mark) -> None:
            run_sliced(sim.run, 0.0, inputs.injections[-1][0], mark, SLICES)
            sim.run_until_idle()

        return Built(run=run, finish=finish)

    def extra_checks(self, inputs: NatInputs, outcome: Outcome) -> Dict[str, bool]:
        if not self.fastpath:
            return {}
        from repro.fastpath.bench import identity_report

        built = self.build(inputs, fastpath=False)
        reference = built.finish(built.run(lambda: None))

        def axes(d: Dict[str, Any]) -> Dict[str, Any]:
            return {"events": d["events"],
                    "records_emitted": d["records_emitted"],
                    "trace_digest": d["trace_sha256"],
                    "metrics": d["metrics_sha256"]}

        report = identity_report(axes(reference.digest), axes(outcome.digest))
        return {f"identity_{axis}": ok for axis, ok in report.items()}


# -- counter_write ----------------------------------------------------------------


@dataclass(frozen=True)
class CounterInputs:
    times_us: Tuple[float, ...]


class CounterWrite(Workload):
    """Sync-Counter, one flow: the write-centric regime (Fig 9/13)."""

    name = "counter_write"
    why = ("write-centric Sync-Counter: every packet is mirrored, chain-"
           "replicated and released on ack; engine, mirror and store "
           "dominate and the flow cache is bypassed by construction")

    def inputs(self, seed: int, scale: float) -> CounterInputs:
        rng = random.Random(f"bench/counter/{seed}")
        packets = max(20, int(COUNTER_PACKETS * scale))
        return CounterInputs(tuple(
            i * COUNTER_SPACING_US + rng.randrange(COUNTER_JITTER_US)
            for i in range(packets)
        ))

    def build(self, inputs: CounterInputs) -> Built:
        from repro import Simulator, deploy
        from repro.apps.counter import SyncCounterApp
        from repro.net.packet import Packet

        sim = Simulator(seed=0)
        dep = deploy(sim, SyncCounterApp)
        sender = dep.bed.externals[0]
        receiver = dep.bed.servers[0]

        def send_packet() -> None:
            sender.send(Packet.udp(sender.ip, receiver.ip, 5555, 7777))

        for t in inputs.times_us:
            sim.schedule_at(t, send_packet)

        def finish(_ret: Any) -> Outcome:
            replicated = int(sim.metrics.total("redplane.writes_replicated"))
            outcome = Outcome(
                offered=len(inputs.times_us),
                delivered=receiver.rx_packets,
                events=sim.events_executed,
                digest=sim_digest(sim),
                extra={"writes_replicated": replicated},
            )
            # Write-centric by construction: every packet is a replicated
            # write (the first rides the lease request instead).
            outcome.checks["every_packet_replicated"] = (
                replicated >= outcome.offered - 1)
            return outcome

        def run(mark: Mark) -> None:
            run_sliced(sim.run, 0.0, inputs.times_us[-1], mark, SLICES)
            sim.run_until_idle()

        return Built(run=run, finish=finish)


# -- flow_churn / flow_churn_shard2 --------------------------------------------------


@dataclass(frozen=True)
class ChurnInputs:
    seed: int
    packets: int
    population: int


def _churn_config(inputs: ChurnInputs, workers: int) -> Any:
    from repro.shard import resolve

    return resolve(
        "million_flow", workers, seed=inputs.seed, capture=False,
        params={"packets": inputs.packets, "population": inputs.population},
    )


class FlowChurn(Workload):
    """The ``million_flow`` campaign, one process or two spawned workers."""

    # build() is resolve(), whose launch-time conformance check re-derives
    # the shard plan from the apps' live code objects: it must not find the
    # tracer's wrappers there. Everything traced is constructed in run().
    trace_build_first = True

    def __init__(self, workers: int) -> None:
        self.workers = workers
        if workers == 1:
            self.name = "flow_churn"
            self.why = (
                "cold flows: Zipf over 1M flows, serialized control-plane "
                "installs, lease grant/renew/expiry, slot reclamation and "
                "one scripted failover; working set far beyond any cache")
        else:
            self.name = f"flow_churn_shard{workers}"
            self.root_layer = "shard"
            self.why = (
                "the identical campaign through run_sharded(mode=process) "
                "on the cores the machine has: only shard.* differs from "
                "flow_churn, so the ratio is a real wall-clock speed-up")

    def inputs(self, seed: int, scale: float) -> ChurnInputs:
        # run_million_flow_scenario hard-codes its draw seed, so --seed
        # reaches only resolve(seed=...) here (README, "Known limits").
        return ChurnInputs(seed, max(60, int(CHURN_PACKETS * scale)),
                           CHURN_POPULATION)

    def build(self, inputs: ChurnInputs) -> Built:
        from repro.shard import run_sharded

        config = _churn_config(inputs, self.workers)
        if self.workers == 1:
            return Built(run=lambda mark: self._run_reference(config, mark),
                         finish=lambda r: self._finish_single(inputs, r))
        return Built(run=lambda _mark: run_sharded(config, mode="process"),
                     finish=lambda r: self._finish_sharded(inputs, r),
                     split=self._split_sharded)

    @staticmethod
    def _split_sharded(merged: Dict[str, Any], wall: float) -> List[Any]:
        """Workers are other processes and cannot mark; their own timers
        cut the region into spawn + frames + merge, the workers side by
        side, and the ghost run."""
        workers = tuple(merged["wall_s_per_shard"])
        ghost = merged["wall_s_ghost"]
        return [wall - max(workers) - ghost, workers, ghost]

    @staticmethod
    def _run_reference(config: Any, mark: Mark) -> Dict[str, Any]:
        """``repro.shard.run_reference`` with a ``pace`` that also marks.
        The scenario driver paces to the failover, to the end of traffic
        and to the end of the lease tail; each stretch is run in slices."""
        from repro import Simulator
        from repro.shard.merge import reference_result

        sim = Simulator(seed=config.seed)

        def pace(until: float) -> None:
            run_sliced(sim.run, sim.now, until, mark, CHURN_SLICES)

        extra = config.scenario.fn(sim, pace, fastpath=config.fastpath,
                                   **config.params)
        result = reference_result(sim)
        result["extra"] = extra
        return result

    @staticmethod
    def _finish_single(inputs: ChurnInputs, result: Dict[str, Any]) -> Outcome:
        translated = int(result["extra"]["translated"])
        return Outcome(
            offered=inputs.packets,
            delivered=translated,
            lost_by_design=inputs.packets - translated,
            events=result["events"],
            digest={
                "events": result["events"],
                "records_emitted": result["records_emitted"],
                "trace_sha256": result["trace_digest"],
                "metrics_sha256": _sha(json.dumps(result["metrics"],
                                                  sort_keys=True)),
            },
            extra={"reclaimed": result["extra"]["reclaimed"]},
        )

    @staticmethod
    def _finish_sharded(inputs: ChurnInputs, merged: Dict[str, Any]) -> Outcome:
        translated = int(merged["extra"]["translated"])
        return Outcome(
            offered=inputs.packets,
            delivered=translated,
            lost_by_design=inputs.packets - translated,
            events=merged["events"],
            # capture=False: no rows to hash; the count-level merge is the
            # fingerprint a throughput run has.
            digest={
                "events": merged["events"],
                "records_emitted": merged["records_emitted"],
                "translated": translated,
                "flows_injected": merged["flows_injected"],
            },
            checks={"rng_silent": merged["rng_draws"] == 0},
            extra={
                "worker_walls_s": merged["wall_s_per_shard"],
                "ghost_wall_s": merged["wall_s_ghost"],
            },
        )

    def extra_checks(self, inputs: ChurnInputs, outcome: Outcome) -> Dict[str, bool]:
        if self.workers == 1:
            return {}
        from repro.shard import run_identity

        single = FlowChurn(1).build(inputs)
        reference = single.finish(single.run(lambda: None))
        outcome.extra["single_translated"] = reference.delivered
        gap = abs(outcome.delivered - reference.delivered)
        identity = run_identity("nat_steady", self.workers, mode="process")
        return {
            "translated_matches_single":
                gap <= max(1, SHARD_TRANSLATED_TOLERANCE * reference.delivered),
            "nat_steady_process_identity": bool(identity["identical"]),
        }


# -- chaos_fuzz -----------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzInputs:
    #: ``generate_spec(FUZZ_SEED, index)`` indices, in the order they run.
    order: Tuple[int, ...]


class ChaosFuzz(Workload):
    """Generated fault campaigns under every auditor: the fault path."""

    name = "chaos_fuzz"
    root_layer = "chaos.fuzz"
    why = ("fault path: many short deployments, retransmit ladders, link "
           "impairments, WAL file I/O, invariant and linearizability "
           "checking; per-run fixed costs matter here and nowhere else")

    def inputs(self, seed: int, scale: float) -> FuzzInputs:
        order = list(range(max(2, int(FUZZ_CAMPAIGNS * scale))))
        random.Random(f"bench/fuzz/{seed}").shuffle(order)
        return FuzzInputs(tuple(order))

    def build(self, inputs: FuzzInputs) -> Built:
        """Set-up is what every campaign pays before its first event: spec
        generation, ``to_campaign()``, a deployment, and building and
        validating the fault schedule on it. ``run_spec`` owns the real
        deployment (it is built inside the timed region, once per campaign,
        as a fuzz user pays it), so the one built here is measured and
        dropped.
        """
        from repro import RedPlaneConfig, Simulator, deploy
        from repro.chaos.fuzz import generate_spec
        from repro.chaos.workload import EchoCounterApp
        from repro.workloads.failures import FailureSchedule

        specs = tuple(generate_spec(FUZZ_SEED, i) for i in inputs.order)
        for spec in specs:
            campaign = spec.to_campaign()
            dep = deploy(
                Simulator(seed=spec.sim_seed), EchoCounterApp,
                config=RedPlaneConfig(lease_period_us=campaign.lease_period_us),
                num_shards=campaign.num_shards,
                chain_length=campaign.chain_length)
            schedule = FailureSchedule(
                dep, detect_delay_us=campaign.detect_delay_us,
                duration_us=campaign.duration_us)
            campaign.build(schedule)
            schedule.validate()
        return Built(run=lambda mark: self._run_campaigns(specs, mark),
                     finish=self._finish)

    @staticmethod
    def _run_campaigns(specs: Tuple[Any, ...],
                       mark: Mark) -> List[Tuple[Any, Any, Any]]:
        """``run_fuzz``'s loop over a given spec list: every campaign under
        the invariant monitor, the health detectors and the linearizability
        checker, pooled into the scorecard. Each campaign is ``run_spec``'s
        call of ``run_campaign_result``, handed a simulator whose ``run``
        is cut into slices (the runner's ``sim_factory`` hook)."""
        from repro import Simulator
        from repro.chaos.runner import run_campaign_result
        from repro.chaos.scorecard import Scorecard
        from repro.model.witness import ViolationWitness
        from repro.observe import ObserveOptions

        def sliced_simulator(seed: int) -> Any:
            sim = Simulator(seed=seed)
            plain_run = sim.run
            sim.run = lambda until: run_sliced(  # type: ignore[method-assign]
                plain_run, sim.now, until, mark, CAMPAIGN_SLICES)
            return sim

        observe = ObserveOptions(health=True)
        scorecard = Scorecard()
        rows = []
        for spec in specs:
            result = run_campaign_result(
                spec.to_campaign(), seed=spec.sim_seed, observe=observe,
                sim_factory=sliced_simulator)
            witness = ViolationWitness.from_report(result.report)
            scorecard.add(spec, result, witness)
            rows.append((spec, result, witness))
            mark()
        scorecard.to_dict()
        return rows

    @staticmethod
    def _finish(rows: List[Tuple[Any, Any, Any]]) -> Outcome:
        from repro.chaos.runner import verdict_json

        offered = sum(spec.packets for spec, _r, _w in rows)
        delivered = sum(r.workload.delivered for _s, r, _w in rows)
        events = sum(r.monitor.sim.events_executed for _s, r, _w in rows)
        passed = sum(r.report["verdict"] == "PASS" for _s, r, _w in rows)
        violations = sum(bool(w) for _s, _r, w in rows)
        # Order-independent, so every seed fingerprints the same campaigns.
        verdicts = sorted(verdict_json(r.report) for _s, r, _w in rows)
        return Outcome(
            offered=offered,
            delivered=delivered,
            lost_by_design=offered - delivered,
            events=events,
            digest={
                "events": events,
                "records_emitted": sum(
                    r.report["trace"]["records_emitted"] for _s, r, _w in rows),
                "verdicts_sha256": _sha("\n".join(verdicts)),
            },
            checks={"all_pass": passed == len(rows),
                    "no_violations": violations == 0},
            extra={"campaigns": len(rows), "passed": passed,
                   "violations": violations},
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        NatSteady(fastpath=False),
        NatSteady(fastpath=True),
        CounterWrite(),
        FlowChurn(1),
        FlowChurn(2),
        ChaosFuzz(),
    )
}
