"""Tests for the fast-path subsystem: invalidation bus, flow cache, and
the bit-identity contract. (The compiled link direction and the route
cache are the default hop path; tests/test_links.py and
tests/test_routing.py cover them.)"""

import json

import pytest

from repro import Simulator, deploy, identity
from repro.apps.counter import SyncCounterApp
from repro.apps.nat import NatApp, install_nat_routes
from repro.fastpath import FLOW_SCOPES, SCOPES, FastPath, InvalidationBus
from repro.fastpath.flowcache import ENTRY_DEPS, Entry
from repro.net.links import Link, SinkNode
from repro.net.packet import Packet
from repro.shard.runner import resolve, run_reference


# -- invalidation bus ---------------------------------------------------------


def test_bus_scopes_and_flow_generation():
    bus = InvalidationBus()
    gen = bus.flow_gen
    for scope in SCOPES:
        bus.publish(scope)
        assert bus.counts[scope] == 1
    # Only the flow-relevant scopes bumped the generation.
    assert bus.flow_gen == gen + len(FLOW_SCOPES)
    with pytest.raises(ValueError):
        bus.publish("weather")


def test_register_and_routing_are_not_flow_scopes():
    """Replay reads registers live, so a register write may not flush
    flow entries (a per-new-flow state install would otherwise wipe the
    whole cache); route churn is not a bus scope at all — each L3Switch
    versions its own route cache."""
    assert "register" not in FLOW_SCOPES
    assert "routing" not in SCOPES
    assert FLOW_SCOPES <= set(SCOPES)


def test_entry_deps_are_declared_flow_scopes():
    for kind, dep in ENTRY_DEPS.items():
        assert dep.scopes <= FLOW_SCOPES, kind
    assert Entry("app", None, 0).deps == ENTRY_DEPS["app"].scopes


def test_entry_deps_declare_partition_classes():
    """Every entry kind carries a cohort-safety class (verify RS406)."""
    for kind, dep in ENTRY_DEPS.items():
        assert dep.partition_class in {"flow_local", "app_keyed"}, kind
    assert Entry("transit", None, 0).partition_class == "flow_local"


# -- flow cache ---------------------------------------------------------------


def _nat_sim(fastpath=True, flows=4, packets=25):
    sim = Simulator(seed=9)
    dep = deploy(sim, NatApp)
    install_nat_routes(dep.bed)
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


def test_chaos_publish_invalidates_flow_entries():
    sim, dep, fp = _nat_sim()
    hits_before = fp.stats()["flow_cache"]["hits"]
    fp.bus.publish("chaos")
    # Same flow again: the stale stamp forces one miss, then hits resume.
    sender = dep.bed.servers[0]
    dst = dep.bed.externals[0].ip
    for _ in range(3):
        sender.send(Packet.udp(sender.ip, dst, 6000, 7777))
        sim.run_until_idle()
    stats = fp.stats()["flow_cache"]
    assert stats["hits"] > hits_before  # hits resumed after re-record
    assert fp.bus.counts["chaos"] == 1


def test_register_publish_does_not_invalidate_flow_entries():
    _sim, _dep, fp = _nat_sim()
    gen = fp.bus.flow_gen
    fp.bus.publish("register")
    assert fp.bus.flow_gen == gen


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


def test_identity_digest_covers_every_record_not_a_ring_tail():
    """The digest is streamed from ``Tracer.on_emit``: a scenario that
    emits more than the default ring holds still hashes all of it."""
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
        metrics = {k: v for k, v in sim.metrics.snapshot().items()
                   if not k.startswith("fastpath.")}
        return sim.events_executed, ring, metrics

    assert run(False) == run(True)


def test_impaired_link_falls_back_to_reference_path():
    """The flow cache never touches the link layer: a lossy link draws
    its seeded randomness per packet with a fast path installed or not,
    so deliveries, counters and RNG state agree."""
    def run(fastpath):
        sim = Simulator(seed=21)
        a = SinkNode(sim, "a")
        b = SinkNode(sim, "b")
        Link(sim, a.new_port(), b.new_port(), loss_rate=0.3)
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
