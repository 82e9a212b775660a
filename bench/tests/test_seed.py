"""``--seed`` changes the generated inputs and nothing else (same size, same
shape, same amount of simulated work), and cutting the timed region into
slices changes nothing about what is simulated."""

from bench.workloads import FUZZ_CAMPAIGNS, FUZZ_SEED, WORKLOADS, sim_digest


def _outcome(name, seed, scale):
    workload = WORKLOADS[name]
    built = workload.build(workload.inputs(seed, scale))
    return built.finish(built.run(lambda: None))


def test_nat_seed_reorders_the_same_packets():
    for name in ("nat_steady_ref", "nat_steady_fastpath"):
        a = WORKLOADS[name].inputs(5, 0.02).injections
        b = WORKLOADS[name].inputs(6, 0.02).injections
        assert a != b
        assert [t for t, _p in a] == [t for t, _p in b]
        assert sorted(p for _t, p in a) == sorted(p for _t, p in b)
        assert WORKLOADS[name].inputs(5, 0.02).injections == a


def test_counter_seed_jitters_arrivals_on_the_microsecond_grid():
    a = WORKLOADS["counter_write"].inputs(5, 0.1).times_us
    b = WORKLOADS["counter_write"].inputs(6, 0.1).times_us
    assert a != b and len(a) == len(b) == 350
    assert all(t == int(t) for t in a)
    assert list(a) == sorted(a)


def test_fuzz_seed_orders_a_pinned_campaign_set():
    a = WORKLOADS["chaos_fuzz"].inputs(5, 0.5).order
    b = WORKLOADS["chaos_fuzz"].inputs(6, 0.5).order
    assert a != b
    assert sorted(a) == sorted(b) == list(range(FUZZ_CAMPAIGNS // 2))
    assert FUZZ_SEED == 5


def test_churn_seed_reaches_only_resolve():
    a = WORKLOADS["flow_churn"].inputs(5, 1.0)
    b = WORKLOADS["flow_churn_shard2"].inputs(6, 1.0)
    assert (a.packets, a.population) == (b.packets, b.population) == (3000, 1_000_000)
    assert (a.seed, b.seed) == (5, 6)


def test_simulated_work_does_not_depend_on_the_seed():
    for name, scale in (("nat_steady_ref", 0.02), ("counter_write", 0.03),
                        ("chaos_fuzz", 0.2)):
        a, b = _outcome(name, 5, scale), _outcome(name, 6, scale)
        assert (a.offered, a.delivered, a.events, a.failed) == \
            (b.offered, b.delivered, b.events, b.failed), name
    # chaos_fuzz fingerprints the campaign set, whatever order it ran in.
    assert a.digest == b.digest


def test_cutting_the_region_into_slices_does_not_change_the_simulation():
    """The sliced region executes what one ``run_until_idle()`` executes."""
    from repro import Simulator, deploy
    from repro.apps.nat import NatApp, install_nat_routes
    from repro.net.packet import Packet

    workload = WORKLOADS["nat_steady_ref"]
    inputs = workload.inputs(5, 0.02)
    marks = []
    built = workload.build(inputs)
    sliced = built.finish(built.run(lambda: marks.append(1)))
    assert len(marks) > 10

    sim = Simulator(seed=0)
    dep = deploy(sim, NatApp)
    install_nat_routes(dep.bed)
    sender, dst_ip = dep.bed.servers[0], dep.bed.externals[0].ip
    for t, sport in inputs.injections:
        sim.schedule_at(
            t, lambda p: sender.send(Packet.udp(sender.ip, dst_ip, p, 7777)),
            sport)
    sim.run_until_idle()
    assert sim_digest(sim) == sliced.digest


def test_sliced_campaigns_return_run_specs_verdicts():
    """Handing the chaos runner a simulator whose ``run`` is sliced changes
    nothing about the campaign: same verdict report, same event count."""
    from repro.chaos.fuzz import run_spec
    from repro.chaos.runner import verdict_json
    from repro.observe import ObserveOptions

    workload = WORKLOADS["chaos_fuzz"]
    marks = []
    rows = workload.build(workload.inputs(5, 0.2)).run(lambda: marks.append(1))
    assert len(rows) == 2 and len(marks) > 100
    for spec, result, _witness in rows:
        plain = run_spec(spec, observe=ObserveOptions(health=True))
        assert verdict_json(plain.report) == verdict_json(result.report)
        assert plain.monitor.sim.events_executed == \
            result.monitor.sim.events_executed
