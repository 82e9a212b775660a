"""Shard-runnable scenario drivers.

A scenario here is the exact same campaign whether it runs as the
single-process reference, as one shard of N, or as the ghost: one
deterministic driver function, parameterized only by which simulator it
gets. That is what makes the identity contract meaningful — the
reference and the shards execute *the same code*, differing only in
which flow-injection roots the shard admission filter lets through.

Driver discipline (enforced by construction, documented in
docs/SHARDING.md):

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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.net import constants

#: Quickstart phase boundaries (absolute simulated microseconds).
QS_PHASE1_END = 100_000.0
QS_FAIL_RECOVER_US = 400_000.0
QS_PHASE2_START = QS_PHASE1_END + QS_FAIL_RECOVER_US
#: Past the *store-side* expiry of the failed owner's lease: the store
#: counts ``LEASE_PERIOD_US`` from the last phase-1 write (~2 ms in), so
#: it buffers the second burst's lease request until ~1.002 s and only
#: then grants the lease that migrates the flow's state.
QS_END = QS_PHASE1_END + constants.LEASE_PERIOD_US + 100_000.0
#: The switch carrying the quickstart flow (ECMP is deterministic for
#: the fixed 5-tuple; scripted so every shard fails the same node).
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
#: The switch carrying the single nat_quickstart flow (deterministic
#: ECMP for the fixed 5-tuple; scripted so every shard fails the same
#: node).
NATQS_FAIL_SWITCH = "agg2"

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


@dataclass
class Scenario:
    """One registered scenario: the app whose shard plan governs it,
    its default seed, and the driver function."""

    name: str
    app: str
    seed: int
    fn: Callable[..., Dict[str, Any]]
    params: Dict[str, Any] = field(default_factory=dict)


def run_quickstart(
    sim: Any,
    pace: Callable[[float], None],
    fastpath: bool = False,
    packets: int = 10,
) -> Dict[str, Any]:
    """The quickstart the ``repro.tools`` demo views run, shard-disciplined.

    One Sync-Counter flow, a scripted owner failover mid-run, a second
    burst that waits at the store until the dead owner's lease expires
    and is released by the migration grant, resource gauges at the end.
    """
    from repro import deploy
    from repro.apps.counter import SyncCounterApp
    from repro.net.packet import Packet

    dep = deploy(sim, SyncCounterApp)
    if fastpath:
        from repro.fastpath.runtime import FastPath

        FastPath.install(sim)
    sender = dep.bed.externals[0]
    receiver = dep.bed.servers[0]

    for i in range(packets):
        sim.schedule_at(
            i * 200.0, sender.send,
            Packet.udp(sender.ip, receiver.ip, 5555, 7777),
        )
    pace(QS_PHASE1_END)

    dep.bed.topology.fail_node(dep.engines[QS_FAIL_SWITCH].switch)
    pace(QS_PHASE2_START)

    for i in range(packets):
        sim.schedule_at(
            QS_PHASE2_START + i * 200.0, sender.send,
            Packet.udp(sender.ip, receiver.ip, 5555, 7777),
        )
    pace(QS_END)

    for name in sorted(dep.engines):
        dep.engines[name].resource_usage()
    return {"packets": 2 * packets}


def run_nat_steady(
    sim: Any,
    pace: Callable[[float], None],
    fastpath: bool = False,
    flows: int = NAT_FLOWS,
    packets_per_flow: int = NAT_PACKETS_PER_FLOW,
) -> Dict[str, Any]:
    """RedPlane-NAT steady state (the fast-path benchmark workload)."""
    from repro import deploy
    from repro.apps.nat import NatApp, install_nat_routes
    from repro.net.packet import Packet

    last_injection = ((flows - 1) * NAT_FLOW_STAGGER_US
                      + (packets_per_flow - 1) * NAT_SPACING_US)
    if last_injection >= NAT_END:
        raise ValueError(
            f"nat_steady: {flows} flows x {packets_per_flow} packets inject "
            f"until {last_injection:.0f} us; the run ends at {NAT_END:.0f} us")
    dep = deploy(sim, NatApp)
    install_nat_routes(dep.bed)
    if fastpath:
        from repro.fastpath.runtime import FastPath

        FastPath.install(sim)
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

    apps = {id(e.app): e.app for e in dep.engines.values()}
    packets = sum(app.translated_out for app in apps.values())
    result = {"packets": packets, "flows": flows}
    if fastpath:  # what ``repro.tools fastpath`` prints
        result["fastpath_stats"] = sim.fastpath.stats()
    return result


def run_nat_quickstart(
    sim: Any,
    pace: Callable[[float], None],
    fastpath: bool = False,
    packets: int = 10,
) -> Dict[str, Any]:
    """The quickstart story on the NAT app: one translated flow, a
    scripted failover of the switch holding its translation entry, a
    second burst buffered at the store until the dead owner's lease
    expires, then translated from the migrated entry."""
    from repro import deploy
    from repro.apps.nat import NatApp, install_nat_routes
    from repro.net.packet import Packet

    dep = deploy(sim, NatApp)
    install_nat_routes(dep.bed)
    if fastpath:
        from repro.fastpath.runtime import FastPath

        FastPath.install(sim)
    sender = dep.bed.servers[0]
    dst_ip = dep.bed.externals[0].ip

    for i in range(packets):
        sim.schedule_at(
            i * 200.0, sender.send,
            Packet.udp(sender.ip, dst_ip, 5555, 7777),
        )
    pace(QS_PHASE1_END)

    dep.bed.topology.fail_node(dep.engines[NATQS_FAIL_SWITCH].switch)
    pace(QS_PHASE2_START)

    for i in range(packets):
        sim.schedule_at(
            QS_PHASE2_START + i * 200.0, sender.send,
            Packet.udp(sender.ip, dst_ip, 5555, 7777),
        )
    pace(QS_END)

    for name in sorted(dep.engines):
        dep.engines[name].resource_usage()
    apps = {id(e.app): e.app for e in dep.engines.values()}
    translated = sum(app.translated_out for app in apps.values())
    return {"packets": 2 * packets, "translated": translated}


def zipf_rank(u: float, population: int, s: float = MF_ZIPF_S) -> int:
    """Analytic inverse-CDF Zipf: map uniform ``u`` to a 1-based rank.

    Continuous bounded-Pareto approximation of the zeta distribution —
    O(1) per draw and streamable, unlike bisection over a cumulative
    mass table (which materializes ``population`` floats up front).
    Exact enough for a popularity workload: the head ranks keep their
    mass within a fraction of a percent of the discrete law.
    """
    if population < 1:
        raise ValueError("population must be >= 1")
    if s == 1.0:
        rank = int(population ** u)
    else:
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
    fail_switch: Optional[str] = MF_FAIL_SWITCH,
    batch: int = MF_BATCH,
) -> Dict[str, Any]:
    """The million-flow campaign: a Zipf packet stream over a huge
    distinct-flow population through RedPlane-NAT, periodic reclamation
    of expired flow slots, and one scripted mid-campaign failover.

    The population is *streamed* (O(1) :func:`zipf_rank` per draw,
    injections scheduled in bounded batches between ``pace()`` calls), so
    neither a 10M-entry table nor a 10M-event heap ever materializes.
    """
    from repro import RedPlaneConfig, deploy
    from repro.apps.nat import NatApp, install_nat_routes
    from repro.net.packet import Packet

    dep = deploy(sim, NatApp, config=RedPlaneConfig(
        lease_period_us=MF_LEASE_US,
        renew_interval_us=MF_LEASE_US / 2,
        max_flows=65_536,
        record_history=False,
    ))
    install_nat_routes(dep.bed)
    if fastpath:
        from repro.fastpath.runtime import FastPath

        FastPath.install(sim)
    sender = dep.bed.servers[0]
    dst_ip = dep.bed.externals[0].ip

    t_traffic_end = packets * MF_SPACING_US
    t_end = t_traffic_end + 3 * MF_LEASE_US
    t_fail = t_traffic_end / 2.0 if fail_switch else None

    def reclaim() -> None:
        freed = sum(e.reclaim_idle_flows() for e in dep.engines.values())
        if freed:
            sim.count("example.reclaimed", freed)  # repro: noqa[RT304] -- campaign-local bookkeeping counter shared with examples/million_flow_campaign.py
        if sim.now < t_end:
            sim.schedule(MF_RECLAIM_EVERY_US, reclaim)

    sim.schedule_at(MF_RECLAIM_EVERY_US, reclaim)

    # Stream the draw sequence: one uniform draw per packet, scheduled
    # in bounded batches with a pace() between them. The driver runs in
    # lockstep on every shard, so each shard sees the identical stream
    # and the admission filter picks its own flows out of it.
    draws = random.Random(MF_DRAW_SEED)
    failed = False
    sent = 0
    while sent < packets:
        batch_end = min(sent + batch, packets)
        for i in range(sent, batch_end):
            when = i * MF_SPACING_US
            if t_fail is not None and not failed and when >= t_fail:
                # Reach the failover point before injecting past it.
                pace(t_fail)
                dep.bed.topology.fail_node(
                    dep.engines[fail_switch].switch,
                    detect_delay_us=25_000.0,
                )
                failed = True
            rank = zipf_rank(draws.random(), population)
            sport, dport = flow_ports(rank)
            sim.schedule_at(
                when, sender.send,
                Packet.udp(sender.ip, dst_ip, sport, dport),
            )
        sent = batch_end
        pace(sent * MF_SPACING_US)
    if t_fail is not None and not failed:
        pace(t_fail)
        dep.bed.topology.fail_node(
            dep.engines[fail_switch].switch, detect_delay_us=25_000.0,
        )
    pace(t_end)

    apps = {id(e.app): e.app for e in dep.engines.values()}
    translated = sum(a.translated_out for a in apps.values())
    return {
        "packets": packets,
        "population": population,
        "translated": translated,
        "reclaimed": int(sim.metrics.value("example.reclaimed")),
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

        # The chaos runner owns its drive loop (absolute times
        # throughout), so the whole campaign is one pace() boundary.
        result = run_campaign_result(
            campaign,
            seed=campaign.sim_seed,
            fastpath=fastpath,
            sim_factory=lambda _seed: sim,
        )
        pace(sim.now)
        return {
            "campaign": campaign.name,
            "packets": result.workload.delivered,
            "verdict": result.report.get("verdict"),
        }

    return run_chaos


def get_scenario(name: str) -> Scenario:
    """Resolve a scenario by registry name (``chaos:<campaign>`` works
    for every registered chaos campaign)."""
    if name == "quickstart":
        return Scenario(name, app="sync_counter", seed=7, fn=run_quickstart)
    if name == "nat_quickstart":
        return Scenario(name, app="nat", seed=7, fn=run_nat_quickstart)
    if name == "nat_steady":
        return Scenario(name, app="nat", seed=5, fn=run_nat_steady)
    if name == "million_flow":
        return Scenario(name, app="nat", seed=23,
                        fn=run_million_flow_scenario)
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
        f"unknown scenario {name!r}; have: quickstart, nat_quickstart, "
        "nat_steady, million_flow, chaos:<campaign>"
    )

