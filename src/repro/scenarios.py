"""The scenario registry: every named run, as one table.

A scenario is one deterministic driver function, the app whose shard
plan governs it, and a default seed. The same driver is the
single-process reference, one shard of N and the ghost
(:mod:`repro.shard.runner`), the demo views (:mod:`repro.tools.demo`)
and every in-process run (:meth:`Scenario.run`); only the simulator it
gets and the ``pace`` it is handed differ. That is what makes the
identity contract meaningful — the reference and the shards execute
*the same code*, differing only in which flow-injection roots the
shard admission filter lets through.

Driver discipline (docs/SHARDING.md, "Scenario discipline"; the shard
identity tests hold this module to it):

* every flow injection is scheduled with the :class:`Packet` in the
  root event's arguments, so the admission filter can key it;
* all phase boundaries are *absolute* simulated times — never
  ``sim.now + delta`` after a drain, because ``sim.now`` after an idle
  drain depends on which flows the shard owns;
* failures name their target switch explicitly — never "the engine
  with the most packets", which is flow-population-dependent;
* nothing after setup draws from ``sim.rng`` (the recorder counts
  draws; identity runs assert zero).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict

from repro.net import constants

#: Failover-story phase boundaries (absolute simulated microseconds).
QS_PHASE1_END = 100_000.0
QS_FAIL_RECOVER_US = 400_000.0
QS_PHASE2_START = QS_PHASE1_END + QS_FAIL_RECOVER_US
#: Past the *store-side* expiry of the failed owner's lease: the store
#: counts ``LEASE_PERIOD_US`` from the last phase-1 write (~2 ms in), so
#: it buffers the second burst's lease request until ~1.002 s and only
#: then grants the lease that migrates the flow's state.
QS_END = QS_PHASE1_END + constants.LEASE_PERIOD_US + 100_000.0
#: The switch carrying the failover story's one flow, for either app
#: (ECMP is deterministic for the fixed 5-tuple; scripted so every
#: shard fails the same node).
QS_FAIL_SWITCH = "agg2"

#: NAT steady-state scenario shape (the fast-path benchmark workload,
#: with the packet in the injection root's arguments).
NAT_FLOWS = 12
NAT_PACKETS_PER_FLOW = 40
NAT_SPACING_US = 2.0
#: Flow starts are staggered: a new NAT flow's first packet triggers a
#: control-plane table install, and the switch CPU is a *serialized*
#: resource (``constants.CONTROL_PLANE_OP_US`` = 88us per op). Starts
#: spaced wider than the install pipeline keep the CPU queue empty at
#: every submit, so per-flow timing stays interleaving-independent —
#: the property the bit-identity contract needs. Overlapping starts are
#: genuine cross-flow coupling, and the identity gate fails honestly.
NAT_FLOW_STAGGER_US = 400.0
NAT_END = 150_000.0

#: Million-flow campaign: Zipf exponent of the flow-popularity draw.
MF_ZIPF_S = 1.05
#: Lease tuning: head flows renew, tail flows expire and recycle SRAM.
MF_LEASE_US = 400_000.0
MF_RECLAIM_EVERY_US = 800_000.0
MF_SPACING_US = 32.0  # paced to the 88 us serial control-plane install cost
#: The scripted mid-campaign victim (ECMP spreads flows over both agg
#: switches; failing either one exercises migration the same way).
MF_FAIL_SWITCH = "agg1"
#: Injections scheduled per driver batch: bounds the event heap.
MF_BATCH = 4096

#: Default campaign shape.
MF_PACKETS = 130_000
MF_POPULATION = 1_000_000
#: Draw-stream seed (independent of the simulator seed; the draw RNG
#: lives in the driver, runs in lockstep on every shard, and never
#: touches ``sim.rng``).
MF_DRAW_SEED = 24


@dataclass(frozen=True)
class Scenario:
    """One registered scenario: the app whose shard plan governs it,
    its default seed, and the driver ``fn(sim, pace, fastpath=False,
    **params)``, where ``pace(t)`` runs the simulator to absolute ``t``."""

    name: str
    app: str
    seed: int
    fn: Callable[..., Dict[str, Any]]

    def run(self, sim: Any, **params: Any) -> Dict[str, Any]:
        """Run the driver in-process on ``sim``, paced by ``sim.run``."""
        return self.fn(sim, sim.run, **params)


def _install_fastpath(sim: Any, fastpath: bool) -> None:
    """The one fast-path install site. ``FastPath.install`` only sets
    ``sim.fastpath``, so it may precede the deployment."""
    if fastpath:
        from repro.fastpath.runtime import FastPath

        FastPath.install(sim)


def _deploy(sim: Any, app: str, fastpath: bool, config: Any = None) -> Any:
    """Deploy ``app`` (a :data:`repro.apps.BUILTIN_APPS` name), with the
    fast path when asked."""
    from repro import deploy
    from repro.apps import BUILTIN_APPS

    dep = deploy(sim, BUILTIN_APPS[app], config=config)
    _install_fastpath(sim, fastpath)
    return dep


def _translated(dep: Any) -> int:
    """Packets the deployment's NAT apps translated outbound."""
    apps = {id(e.app): e.app for e in dep.engines.values()}
    return sum(a.translated_out for a in apps.values())


def run_failover(
    sim: Any,
    pace: Callable[[float], None],
    fastpath: bool = False,
    packets: int = 10,
    *,
    app: str,
) -> Dict[str, Any]:
    """The quickstart story on ``app`` (``sync_counter`` or ``nat``).

    One flow, a scripted failover of the switch that owns it, a second
    burst that waits at the store until the dead owner's lease expires
    and is released by the migration grant, resource gauges at the end.
    The counter's flow enters from outside; the NAT flow leaves from a
    server, so it is translated, and the NAT run reports how many
    packets were.
    """
    from repro.net.packet import Packet

    dep = _deploy(sim, app, fastpath)
    inside, outside = dep.bed.servers[0], dep.bed.externals[0]
    sender, receiver = (inside, outside) if app == "nat" else (outside, inside)

    def burst(start: float) -> None:
        for i in range(packets):
            sim.schedule_at(
                start + i * 200.0, sender.send,
                Packet.udp(sender.ip, receiver.ip, 5555, 7777),
            )

    burst(0.0)
    pace(QS_PHASE1_END)

    dep.bed.topology.fail_node(dep.engines[QS_FAIL_SWITCH].switch)
    pace(QS_PHASE2_START)

    burst(QS_PHASE2_START)
    pace(QS_END)

    for name in sorted(dep.engines):
        dep.engines[name].resource_usage()
    result = {"packets": 2 * packets}
    if app == "nat":
        result["translated"] = _translated(dep)
    return result


def run_nat_steady(
    sim: Any,
    pace: Callable[[float], None],
    fastpath: bool = False,
    flows: int = NAT_FLOWS,
    packets_per_flow: int = NAT_PACKETS_PER_FLOW,
) -> Dict[str, Any]:
    """RedPlane-NAT steady state (the fast-path benchmark workload)."""
    from repro.net.packet import Packet

    last_injection = ((flows - 1) * NAT_FLOW_STAGGER_US
                      + (packets_per_flow - 1) * NAT_SPACING_US)
    if last_injection >= NAT_END:
        raise ValueError(
            f"nat_steady: {flows} flows x {packets_per_flow} packets inject "
            f"until {last_injection:.0f} us; the run ends at {NAT_END:.0f} us")
    dep = _deploy(sim, "nat", fastpath)
    sender = dep.bed.servers[0]
    dst_ip = dep.bed.externals[0].ip

    for f in range(flows):
        for p in range(packets_per_flow):
            sim.schedule_at(
                f * NAT_FLOW_STAGGER_US + p * NAT_SPACING_US,
                sender.send,
                Packet.udp(sender.ip, dst_ip, 5000 + f, 7777),
            )
    pace(NAT_END)

    result = {"packets": _translated(dep), "flows": flows}
    if fastpath:  # what ``repro.tools fastpath`` prints
        result["fastpath_stats"] = sim.fastpath.stats()
    return result


def zipf_rank(u: float, population: int) -> int:
    """Analytic inverse-CDF Zipf (exponent ``MF_ZIPF_S``): map uniform
    ``u`` to a 1-based rank.

    Continuous bounded-Pareto approximation of the zeta distribution —
    O(1) per draw and streamable, unlike bisection over a cumulative
    mass table (which materializes ``population`` floats up front).
    Exact enough for a popularity workload: the head ranks keep their
    mass within a fraction of a percent of the discrete law.
    """
    if population < 1:
        raise ValueError("population must be >= 1")
    s = MF_ZIPF_S
    rank = int(
        (u * (population ** (1.0 - s) - 1.0) + 1.0) ** (1.0 / (1.0 - s))
    )
    return min(max(rank, 1), population)


def flow_ports(flow_id: int) -> tuple:
    """Distinct (sport, dport) per flow rank — millions of 5-tuples."""
    return 2000 + flow_id % 60000, 1000 + flow_id // 60000


def run_million_flow_scenario(
    sim: Any,
    pace: Callable[[float], None],
    fastpath: bool = False,
    packets: int = MF_PACKETS,
    population: int = MF_POPULATION,
) -> Dict[str, Any]:
    """The million-flow campaign: a Zipf packet stream over a huge
    distinct-flow population through RedPlane-NAT, periodic reclamation
    of expired flow slots, and one scripted mid-campaign failover of
    ``MF_FAIL_SWITCH``.

    The population is *streamed* (O(1) :func:`zipf_rank` per draw,
    injections scheduled in ``MF_BATCH`` batches between ``pace()``
    calls), so neither a 10M-entry table nor a 10M-event heap ever
    materializes.
    """
    from repro import RedPlaneConfig
    from repro.net.packet import Packet

    dep = _deploy(sim, "nat", fastpath, config=RedPlaneConfig(
        lease_period_us=MF_LEASE_US,
        renew_interval_us=MF_LEASE_US / 2,
        max_flows=65_536,
    ))
    sender = dep.bed.servers[0]
    dst_ip = dep.bed.externals[0].ip

    t_traffic_end = packets * MF_SPACING_US
    t_end = t_traffic_end + 3 * MF_LEASE_US
    t_fail = t_traffic_end / 2.0

    def reclaim() -> None:
        for eng in dep.engines.values():
            eng.reclaim_idle_flows()
        if sim.now < t_end:
            sim.schedule(MF_RECLAIM_EVERY_US, reclaim)

    sim.schedule_at(MF_RECLAIM_EVERY_US, reclaim)

    def fail() -> None:
        pace(t_fail)
        dep.bed.topology.fail_node(
            dep.engines[MF_FAIL_SWITCH].switch, detect_delay_us=25_000.0,
        )

    # Stream the draw sequence: one uniform draw per packet, scheduled
    # in bounded batches with a pace() between them. The driver runs in
    # lockstep on every shard, so each shard sees the identical stream
    # and the admission filter picks its own flows out of it.
    draws = random.Random(MF_DRAW_SEED)
    failed = False
    sent = 0
    while sent < packets:
        batch_end = min(sent + MF_BATCH, packets)
        for i in range(sent, batch_end):
            when = i * MF_SPACING_US
            if not failed and when >= t_fail:
                # Reach the failover point before injecting past it.
                fail()
                failed = True
            rank = zipf_rank(draws.random(), population)
            sport, dport = flow_ports(rank)
            sim.schedule_at(
                when, sender.send,
                Packet.udp(sender.ip, dst_ip, sport, dport),
            )
        sent = batch_end
        pace(sent * MF_SPACING_US)
    if not failed:
        fail()
    pace(t_end)

    return {
        "packets": packets,
        "population": population,
        "translated": _translated(dep),
        "reclaimed": int(sim.metrics.total("redplane.flows_reclaimed")),
    }


def _make_chaos_runner(campaign: Any) -> Callable[..., Dict[str, Any]]:
    """A scenario body for any :class:`repro.chaos.campaigns.Campaign`,
    named or generated, run under the campaign's own ``sim_seed``."""
    def run_chaos(
        sim: Any,
        pace: Callable[[float], None],
        fastpath: bool = False,
    ) -> Dict[str, Any]:
        from repro.chaos.runner import run_campaign_result

        _install_fastpath(sim, fastpath)
        # The chaos runner owns its drive loop (absolute times
        # throughout), so the whole campaign is one pace() boundary.
        result = run_campaign_result(
            campaign,
            seed=campaign.sim_seed,
            sim_factory=lambda _seed: sim,
        )
        pace(sim.now)
        return {
            "campaign": campaign.name,
            "packets": result.workload.delivered,
            "verdict": result.report.get("verdict"),
        }

    return run_chaos


#: The registry. ``chaos:<campaign>`` names are resolved by
#: :func:`get_scenario` on top of it.
SCENARIOS: Dict[str, Scenario] = {s.name: s for s in (
    Scenario("quickstart", "sync_counter", 7,
             partial(run_failover, app="sync_counter")),
    Scenario("nat_quickstart", "nat", 7, partial(run_failover, app="nat")),
    Scenario("nat_steady", "nat", 5, run_nat_steady),
    Scenario("million_flow", "nat", 23, run_million_flow_scenario),
)}


def get_scenario(name: str) -> Scenario:
    """Resolve a scenario by registry name.

    ``chaos:<campaign>`` resolves every campaign in
    :data:`repro.chaos.campaigns.CAMPAIGNS`; whether it also shards is
    what ``repro.tools shard diff`` reports (docs/SHARDING.md).
    """
    if name in SCENARIOS:
        return SCENARIOS[name]
    if name.startswith("chaos:"):
        campaign = name.split(":", 1)[1]
        from repro.chaos.campaigns import CAMPAIGNS

        if campaign not in CAMPAIGNS:
            raise KeyError(
                f"unknown chaos campaign {campaign!r}; have: "
                f"{', '.join(sorted(CAMPAIGNS))}"
            )
        # EchoCounterApp subclasses SyncCounterApp, so the committed
        # sync_counter plan governs its state partition.
        chosen = CAMPAIGNS[campaign]
        return Scenario(name, app="sync_counter", seed=chosen.sim_seed,
                        fn=_make_chaos_runner(chosen))
    raise KeyError(
        f"unknown scenario {name!r}; have: {', '.join(SCENARIOS)}, "
        "chaos:<campaign>"
    )
