"""Tests for the fast-path subsystem: the flow cache and the
bit-identity contract. (The compiled link direction and the route
cache are the default hop path; tests/test_links.py and
tests/test_routing.py cover them.)"""

import json

import pytest

from repro import RedPlaneConfig, Simulator, deploy, identity
from repro.apps.counter import SyncCounterApp
from repro.apps.nat import NatApp
from repro.fastpath import FastPath
from repro.net.links import Link, LinkImpairment, SinkNode
from repro.net.packet import Packet
from repro.shard.runner import resolve, run_reference


# -- flow cache ---------------------------------------------------------------


def _nat_sim(fastpath=True, flows=4, packets=25):
    sim = Simulator(seed=9)
    dep = deploy(sim, NatApp)
    fp = FastPath.install(sim) if fastpath else None
    sender = dep.bed.servers[0]
    dst = dep.bed.externals[0].ip
    t = 0.0
    for _p in range(packets):
        for f in range(flows):
            sim.schedule_at(t, lambda sport: sender.send(
                Packet.udp(sender.ip, dst, sport, 7777)), 6000 + f)
            t += 2.0
    sim.run_until_idle()
    return sim, dep, fp


def test_flow_cache_hits_after_first_packet():
    _sim, _dep, fp = _nat_sim()
    stats = fp.stats()["flow_cache"]
    assert stats["hits"] > 0
    assert stats["hits"] > stats["misses"]
    assert stats["entries"] > 0


def test_fastpath_install_is_idempotent_and_uninstalls():
    sim = Simulator(seed=1)
    fp = FastPath.install(sim)
    assert FastPath.install(sim) is fp
    fp.uninstall()
    assert sim.fastpath is None


# -- bit-identity -------------------------------------------------------------


def _nat_steady(fastpath, **params):
    """The registry's NAT steady state, single process: the scenario
    ``repro.tools fastpath`` runs."""
    return run_reference(
        resolve("nat_steady", 1, fastpath=fastpath, params=params))


def test_fastpath_run_is_bit_identical_to_reference():
    """The whole contract in one assertion: events, every trace record
    (types, timestamps, field order), and metrics are identical on vs
    off."""
    off = _nat_steady(False, flows=8, packets_per_flow=40)
    on = _nat_steady(True, flows=8, packets_per_flow=40)
    report = identity.compare(off, on)
    assert all(report.values()), report
    assert on["extra"]["fastpath_stats"]["flow_cache"]["hits"] > 0


def _reused_index_run(fastpath):
    """Flow A, a reclamation that frees A's slot, flow B in that slot,
    then A again: the fingerprint, the flow index each flow held, and
    the number of slots reclaimed."""
    sim = Simulator(seed=9)
    hasher = identity.watch(sim)
    dep = deploy(sim, NatApp, config=RedPlaneConfig(lease_period_us=20_000.0))
    if fastpath:
        FastPath.install(sim)
    sender = dep.bed.servers[0]
    dst = dep.bed.externals[0].ip

    def burst(start, sport):
        for i in range(5):
            sim.schedule_at(start + i * 200.0, lambda: sender.send(
                Packet.udp(sender.ip, dst, sport, 7777)))

    burst(0.0, 5000)                       # flow A
    sim.run(until=100_000.0)
    engine = dep.engines["agg1"]
    held = {"A": dict(engine._flow_idx)}
    freed = sum(e.reclaim_idle_flows() for e in dep.engines.values())
    burst(sim.now, 6000)                   # flow B
    sim.run(until=150_000.0)
    held["B"] = dict(engine._flow_idx)
    burst(sim.now, 5000)                   # flow A returns
    sim.run(until=250_000.0)
    return identity.fingerprint(sim, hasher), held, freed


def test_replay_reads_a_reused_flow_index_live():
    """A cached entry holds no flow index: after reclamation hands A's
    slot to B, A's next packet must allocate a fresh slot, exactly as
    the reference pipeline does, not replay into B's registers."""
    off, held, freed = _reused_index_run(False)
    on, held_on, freed_on = _reused_index_run(True)
    assert freed == freed_on == 1
    assert held == held_on
    (a_idx,) = held["A"].values()
    (b_idx,) = held["B"].values()
    assert b_idx == a_idx                  # B took A's slot
    report = identity.compare(off, on)
    assert all(report.values()), report


def test_million_flow_identical_with_fastpath():
    """Slot reclamation and a mid-run failover in one scenario: the
    cache changes no event, record or metric."""
    def run(fastpath):
        return run_reference(resolve(
            "million_flow", 1, fastpath=fastpath,
            params={"packets": 1500, "population": 5000}))

    off, on = run(False), run(True)
    assert off["extra"]["reclaimed"] > 0
    assert on["extra"] == off["extra"]
    report = identity.compare(off, on)
    assert all(report.values()), report


def test_identity_digest_covers_every_record_not_a_ring_tail():
    """The digest is streamed from a sink in ``Tracer.sinks``: a scenario
    that emits more than the default ring holds still hashes all of it."""
    result = _nat_steady(False, flows=50, packets_per_flow=160)
    assert result["records_emitted"] > 65536
    assert result["records_hashed"] == result["records_emitted"]


def test_ab_verdict_holds_and_is_complete_when_a_ring_truncated(
        capsys, monkeypatch):
    """Nothing the verdict reads comes from the ring, so a ring that
    keeps 256 records of each run changes no axis."""
    from repro.shard import runner
    from repro.tools.runner import main as tools_main

    sims = []

    def small_ring(config):
        sims.append(Simulator(seed=config.seed, trace_ring=256))
        return sims[-1]

    monkeypatch.setattr(runner, "_new_sim", small_ring)
    assert tools_main(["fastpath", "--diff", "--json", "--flows", "4",
                       "--packets", "20"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert all(sim.tracer.records_dropped > 0 for sim in sims)
    assert result["identity"]["trace_complete"] is True
    assert all(result["identity"].values()) and result["identical"]
    assert result["off"]["records_hashed"] == result["off"]["records_emitted"]


def test_nat_steady_refuses_a_shape_that_outlasts_the_run(capsys):
    """500 flows would still be injecting when the scenario ends; the
    driver names both times instead of truncating the run."""
    from repro.tools.runner import main as tools_main

    with pytest.raises(ValueError, match=r"200398 us.*150000 us"):
        _nat_steady(False, flows=500, packets_per_flow=400)
    assert tools_main(["fastpath", "--flows", "500"]) == 2
    assert "200398 us" in capsys.readouterr().err


def test_bench_module_keeps_only_the_name_the_benchmark_imports():
    from repro.fastpath import bench

    public = [name for name, value in vars(bench).items()
              if getattr(value, "__module__", None) == bench.__name__]
    assert public == ["identity_report"]


def test_fastpath_identical_under_sync_counter_writes():
    """A write-per-packet app exercises the replication protocol on
    every replay; identity must hold there too."""
    def run(fastpath):
        sim = Simulator(seed=3)
        dep = deploy(sim, SyncCounterApp)
        if fastpath:
            FastPath.install(sim)
        sender = dep.bed.externals[0]
        receiver = dep.bed.servers[0]
        for i in range(60):
            sim.schedule(i * 10.0, lambda: sender.send(
                Packet.udp(sender.ip, receiver.ip, 5555, 7777)))
        sim.run_until_idle()
        ring = [(r.ts, r.type, tuple(r.fields.items()))
                for r in sim.tracer.tail(len(sim.tracer))]
        return sim.events_executed, ring, sim.metrics.snapshot()

    assert run(False) == run(True)


def test_impaired_link_falls_back_to_reference_path():
    """The flow cache never touches the link layer: a lossy link draws
    its seeded randomness per packet with a fast path installed or not,
    so deliveries, counters and RNG state agree."""
    def run(fastpath):
        sim = Simulator(seed=21)
        a = SinkNode(sim, "a")
        b = SinkNode(sim, "b")
        link = Link(sim, a.new_port(), b.new_port())
        link.impair(LinkImpairment(drop_rate=0.3))
        if fastpath:
            FastPath.install(sim)
        for _ in range(200):
            a.ports[0].send(Packet.udp(1, 2, 3, 4))
        sim.run_until_idle()
        return (len(b.received), sim.metrics.snapshot()["counters"],
                sim.rng.getstate())

    off = run(False)
    assert off == run(True)
    assert 0 < off[0] < 200


# -- CLI ----------------------------------------------------------------------


def test_tools_fastpath_stats_and_diff(capsys):
    from repro.tools.runner import main as tools_main

    assert tools_main(["fastpath", "--flows", "4", "--packets", "20"]) == 0
    out = capsys.readouterr().out
    assert "flow cache" in out and "invalidations" in out

    assert tools_main(["fastpath", "--diff", "--flows", "4",
                       "--packets", "20"]) == 0
    out = capsys.readouterr().out
    assert "identical" in out and "DIVERGED" not in out


def test_tools_bench_section_parser():
    from repro.tools.runner import _parse_sections

    bar = "=" * 74
    text = "\n".join([
        "", bar, "Fig 1 — demo", bar, "row a", "row b", "",
        "", bar, "Fig 2 — other", bar, "row c", "",
    ])
    sections = _parse_sections(text)
    assert sections == {
        "Fig 1 — demo": ["row a", "row b"],
        "Fig 2 — other": ["row c"],
    }
