"""Tests for the fault primitives, the fault table and FaultSpec."""

import os
import re

import pytest

from repro import RedPlaneConfig, Simulator, deploy
from repro.apps.counter import SyncCounterApp
from repro.chaos.campaigns import AGG1_TOR1, CAMPAIGNS, TOR1_ST1
from repro.chaos.workload import CounterWorkload, EchoCounterApp
from repro.model.linearizability import check_counter_history
from repro.net.packet import Packet
from repro.telemetry import trace as tt
from repro.workloads.failures import (
    FAULTS,
    TARGET_PARAM,
    FailureSchedule,
    FaultSpec,
    ScheduleError,
    apply_specs,
)

#: Each aggregation switch fails in turn, the previous one recovering
#: first: state migrates around the cluster.
ROLLING_SWITCH_FAILURES = (
    FaultSpec.make("fail_switch", 200_000.0, switch="agg1"),
    FaultSpec.make("recover_switch", 400_000.0, switch="agg1"),
    FaultSpec.make("fail_switch", 600_000.0, switch="agg2"),
    FaultSpec.make("recover_switch", 1_000_000.0, switch="agg2"),
)


def steady_traffic(sim, dep, n, gap_us=100_000.0):
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    got = []
    s11.default_handler = got.append
    for i in range(n):
        sim.schedule(i * gap_us, e1.send, Packet.udp(e1.ip, s11.ip, 5555, 7777))
    return got


def test_single_failover_schedule(sim, counter_deployment):
    dep = counter_deployment
    schedule = FailureSchedule(dep, detect_delay_us=50_000.0)
    schedule.fail_switch_at(250_000.0, "agg1")
    schedule.recover_switch_at(800_000.0, "agg1")
    got = steady_traffic(sim, dep, 12)
    sim.run(until=1_500_000)
    sim.run_until_idle()
    events = schedule.summary()
    assert [(k, t) for t, k, _n in events] == [
        ("fail_node", 250_000.0), ("recover_node", 800_000.0)]
    # Traffic continued across the failure (state migrated).
    assert len(got) >= 10


def test_flapping_link_schedule(sim, counter_deployment):
    dep = counter_deployment
    schedule = FailureSchedule(dep, detect_delay_us=1_000.0)
    for flap in range(3):
        schedule.fail_link_at(10_000.0 + flap * 20_000.0, 0)
        schedule.recover_link_at(20_000.0 + flap * 20_000.0, 0)
    sim.run(until=100_000)
    kinds = [k for _t, k, _n in schedule.summary()]
    assert kinds.count("fail_link") == 3
    assert kinds.count("recover_link") == 3
    link = dep.bed.topology.links[0]
    assert link.up  # last action was a recovery


def test_rolling_failures_migrate_state(sim, counter_deployment):
    dep = counter_deployment
    schedule = FailureSchedule(dep, detect_delay_us=20_000.0)
    apply_specs(schedule, ROLLING_SWITCH_FAILURES)
    got = steady_traffic(sim, dep, 15)
    sim.run(until=2_000_000)
    sim.run_until_idle()
    kinds = [k for _t, k, _n in schedule.summary()]
    assert kinds.count("fail_node") == 2   # both aggs failed at some point
    assert kinds.count("recover_node") == 2
    key = Packet.udp(dep.bed.externals[0].ip, dep.bed.servers[0].ip,
                     5555, 7777).flow_key()
    # The count survived both migrations: the store's total covers every
    # delivered packet (it may exceed it — an update can commit while its
    # output is lost in a failure window, the §4.2 anomaly — but it can
    # never be below what was observably delivered, and never above the
    # offered packet count).
    rec = dep.stores[0].records[key]
    assert len(got) <= rec.vals[0] <= 15
    assert len(got) >= 10  # the workload largely survived the rolling faults


def test_flapping_link_history_linearizable():
    """Fig 7a's hazard end-to-end: a link flapping under the owning switch
    must not duplicate or regress state — the surviving history is
    checked against the counter's sequential spec."""
    sim = Simulator(seed=11)
    dep = deploy(sim, EchoCounterApp,
                 config=RedPlaneConfig(lease_period_us=200_000.0))
    workload = CounterWorkload(dep, packets=40, gap_us=10_000.0,
                               start_us=10_000.0)
    workload.start()
    schedule = FailureSchedule(dep, detect_delay_us=20_000.0)
    apply_specs(schedule, CAMPAIGNS["flapping_link"].faults)  # agg1<->tor1
    sim.run(until=1_200_000)
    sim.run_until_idle()

    assert check_counter_history(workload.history())
    values = workload.delivered_values()
    assert values == sorted(set(values))  # no duplicated state values
    assert workload.delivered >= 25       # traffic largely survived


def test_rolling_failures_history_linearizable():
    """State migrates across every switch in turn; each migration must
    preserve per-flow linearizability, not just the final count."""
    sim = Simulator(seed=13)
    dep = deploy(sim, EchoCounterApp,
                 config=RedPlaneConfig(lease_period_us=200_000.0))
    workload = CounterWorkload(dep, packets=15, gap_us=100_000.0,
                               start_us=10_000.0)
    workload.start()
    schedule = FailureSchedule(dep, detect_delay_us=20_000.0)
    apply_specs(schedule, ROLLING_SWITCH_FAILURES)
    sim.run(until=2_500_000)
    sim.run_until_idle()

    assert check_counter_history(workload.history())
    values = workload.delivered_values()
    assert values == sorted(set(values))
    assert workload.delivered >= 10


def test_faults_emit_trace_events(sim, counter_deployment):
    dep = counter_deployment
    schedule = FailureSchedule(dep, detect_delay_us=10_000.0)
    schedule.fail_switch_at(1_000.0, "agg1")
    schedule.recover_switch_at(5_000.0, "agg1")
    schedule.impair_link_at(2_000.0, AGG1_TOR1, corrupt_rate=0.1)
    sim.run(until=10_000)
    injects = sim.tracer.records_of(tt.FAULT_INJECT)
    clears = sim.tracer.records_of(tt.FAULT_CLEAR)
    assert [(r.fields["kind"], r.fields["target"]) for r in injects] == [
        ("fail_node", "agg1"), ("impair_link", "agg1<->tor1")]
    assert injects[1].fields["detail"] == "corrupt_rate=0.1"
    assert [(r.fields["kind"], r.fields["target"]) for r in clears] == [
        ("recover_node", "agg1")]


def test_gray_primitives_schedule_and_log():
    sim = Simulator(seed=3)
    dep = deploy(sim, SyncCounterApp)
    schedule = FailureSchedule(dep)
    link = dep.bed.topology.links[TOR1_ST1]
    # Asymmetric partition: a one-way blackhole of st1's egress.
    schedule.impair_link_at(1_000.0, TOR1_ST1, from_node="st1", blocked=True)
    schedule.clear_link_at(2_000.0, TOR1_ST1, from_node="st1")
    schedule.degrade_store_at(1_000.0, 0, proc_delay_us=500.0)
    schedule.restore_store_at(3_000.0, 0)
    schedule.fail_store_at(4_000.0, 1)
    schedule.recover_store_at(5_000.0, 1)
    schedule.expire_leases_at(6_000.0)
    baseline_proc = dep.stores[0].proc_delay_us

    sim.run(until=1_500.0)
    st1_port = link.a if link.a.node.name == "st1" else link.b
    assert link.impairment_of(st1_port).blocked
    assert link.impaired
    assert dep.stores[0].proc_delay_us == 500.0
    sim.run(until=4_500.0)
    assert not link.impaired
    assert dep.stores[0].proc_delay_us == baseline_proc
    assert dep.stores[1].failed
    sim.run(until=7_000.0)
    assert not dep.stores[1].failed
    kinds = [k for _t, k, _n in schedule.summary()]
    assert kinds == ["impair_link", "degrade_store", "clear_link",
                     "restore_store", "fail_node", "recover_node",
                     "expire_leases"]
    detailed = schedule.detailed_summary()
    assert all(set(f) == {"time_us", "kind", "target", "detail"}
               for f in detailed)


def test_schedule_rejects_fault_at_or_after_duration(sim, counter_deployment):
    schedule = FailureSchedule(counter_deployment, duration_us=1_000_000.0)
    with pytest.raises(ScheduleError, match="drain window"):
        schedule.fail_switch_at(1_000_000.0, "agg1")
    with pytest.raises(ScheduleError, match="drain window"):
        schedule.expire_leases_at(1_500_000.0)
    # Without a declared duration anything non-negative is accepted.
    open_ended = FailureSchedule(counter_deployment)
    open_ended.expire_leases_at(9_000_000.0)


def test_schedule_rejects_negative_time(sim, counter_deployment):
    schedule = FailureSchedule(counter_deployment)
    with pytest.raises(ScheduleError, match="negative"):
        schedule.fail_switch_at(-1.0, "agg1")


def test_validate_rejects_recover_before_fail(sim, counter_deployment):
    schedule = FailureSchedule(counter_deployment)
    schedule.recover_switch_at(5_000.0, "agg1")
    with pytest.raises(ScheduleError, match="recover-before-fail"):
        schedule.validate()


def test_validate_requires_matching_target(sim, counter_deployment):
    # A recovery only clears a fault on the *same* target: failing agg1
    # does not license recovering agg2.
    schedule = FailureSchedule(counter_deployment)
    schedule.fail_switch_at(1_000.0, "agg1")
    schedule.recover_switch_at(5_000.0, "agg2")
    with pytest.raises(ScheduleError, match="agg2"):
        schedule.validate()


def test_validate_accepts_ordered_pairs_and_standalone_faults(
        sim, counter_deployment):
    schedule = FailureSchedule(counter_deployment)
    schedule.fail_switch_at(1_000.0, "agg1")
    schedule.recover_switch_at(5_000.0, "agg1")
    schedule.expire_leases_at(2_000.0)  # no clear kind; always valid
    schedule.validate()


def test_rack_failure_takes_tor_and_store(sim, counter_deployment):
    dep = counter_deployment
    schedule = FailureSchedule(dep)
    rack = CAMPAIGNS["rolling_rack_failure"].faults
    apply_specs(schedule, [f for f in rack if f.time_us == 300_000.0])
    sim.run(until=310_000)
    assert dep.bed.tors[0].failed
    assert dep.stores[0].failed
    names = {n for _t, _k, n in schedule.summary()}
    assert names == {"tor1", "st1"}


def test_active_faults_pair_each_clear_with_the_fault_it_undoes(
        sim, counter_deployment):
    schedule = FailureSchedule(counter_deployment)
    schedule.fail_switch_at(1_000.0, "agg1")
    schedule.crash_store_at(2_000.0, 0)
    schedule.fail_store_at(2_000.0, 1)
    schedule.recover_store_at(3_000.0, 1)   # undoes fail_store, not the crash
    schedule.recover_switch_at(4_000.0, "agg1")
    schedule.recover_store_from_disk_at(5_000.0, 0)
    active = lambda t: [(f.kind, f.target) for f in schedule.active_at(t)]
    assert active(500.0) == []
    assert active(2_500.0) == [("fail_node", "agg1"), ("crash_store", "st1"),
                               ("fail_node", "st2")]
    assert active(4_500.0) == [("crash_store", "st1")]
    assert schedule.stores_down_at(4_500.0) == 1
    assert active(5_000.0) == []


# -- the fault table and FaultSpec ---------------------------------------------

#: One legal value per parameter name the table uses.
_SAMPLE = {
    "switch": "agg1", "index": 0, "link": AGG1_TOR1, "from_node": "agg1",
    "corrupt_rate": 0.1, "drop_rate": 0.1, "duplicate_rate": 0.1,
    "jitter_us": 5.0, "bandwidth_scale": 0.5, "blocked": False,
    "proc_delay_us": 100.0, "service_time_us": 10.0,
}


def test_fault_table_is_total(sim, counter_deployment):
    """Every kind applies on a live deployment with all of its parameters,
    writes its ``injected`` string, and every ``undoes`` entry is a kind."""
    schedule = FailureSchedule(counter_deployment)
    specs = []
    for kind, row in FAULTS.items():
        assert row.target in TARGET_PARAM
        assert set(row.undoes) <= set(FAULTS)
        assert all(FAULTS[u].target == row.target for u in row.undoes)
        params = {name: _SAMPLE[name] for name in row.params}
        # Faults at 1 ms, the clears that undo them at 2 ms.
        specs.append(FaultSpec.make(kind, 2_000.0 if row.undoes else 1_000.0,
                                    **params))
        assert specs[-1].target == (row.target,
                                    _SAMPLE[TARGET_PARAM[row.target]])
    apply_specs(schedule, specs)
    schedule.validate()
    sim.run(until=3_000.0)
    assert sorted(f.spec_kind for f in schedule.log) == sorted(FAULTS)
    assert all(f.kind == FAULTS[f.spec_kind].injected for f in schedule.log)
    traced = {r.fields["kind"] for r in
              sim.tracer.records_of(tt.FAULT_INJECT)
              + sim.tracer.records_of(tt.FAULT_CLEAR)}
    assert traced == {row.injected for row in FAULTS.values()}
    assert schedule.active_at(3_000.0) == [
        f for f in schedule.log if f.spec_kind == "expire_leases"]


def test_docs_write_out_every_row_of_the_fault_table():
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "FAULTS.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    section = re.search(r"^## A campaign is data\n(.*?)(?=^## |\Z)", text,
                        re.M | re.S).group(1)
    rows = {cells[0]: cells for cells in (
        [c.strip().strip("`") for c in line.strip("|").split("|")]
        for line in section.splitlines() if line.startswith("| `"))
        if len(cells) == 5}  # the fault table, not the campaign list
    assert set(rows) == set(FAULTS)
    for kind, row in FAULTS.items():
        _kind, params, target, undoes, injected = rows[kind]
        assert target == row.target and injected == row.injected
        assert undoes.replace("`", "") == (", ".join(row.undoes) or "—")
        assert all(name in params for name in row.params)


def test_spec_without_a_required_param_is_refused_at_construction():
    with pytest.raises(ScheduleError, match="fail_link.*'link'"):
        FaultSpec.make("fail_link", 1_000.0)
    with pytest.raises(ScheduleError, match="crash_store.*'index'"):
        FaultSpec.from_dict({"kind": "crash_store", "time_us": 1_000.0})
    with pytest.raises(ScheduleError, match="takes no parameter 'index'"):
        FaultSpec.make("fail_link", 1_000.0, link=1, index=2)
    with pytest.raises(ScheduleError, match="unknown fault kind"):
        FaultSpec.make("melt_switch", 1_000.0)
    FaultSpec.make("expire_leases", 1_000.0)  # its one parameter is optional


def test_spec_naming_a_target_the_deployment_lacks_is_refused_at_apply(
        sim, counter_deployment):
    schedule = FailureSchedule(counter_deployment)
    links = len(counter_deployment.bed.topology.links)
    with pytest.raises(ScheduleError,
                       match=rf"'fail_link': link=99 .*0\.\.{links - 1}"):
        apply_specs(schedule, [FaultSpec.make("fail_link", 1_000.0, link=99)])
    with pytest.raises(ScheduleError, match=r"'crash_store': index=7 .*0\.\.2"):
        apply_specs(schedule, [FaultSpec.make("crash_store", 1_000.0, index=7)])
    with pytest.raises(ScheduleError, match=r"'restore_store': index=-1 "):
        schedule.restore_store_at(1_000.0, -1)
    with pytest.raises(ScheduleError, match="'fail_switch': switch='agg9'"):
        schedule.fail_switch_at(1_000.0, "agg9")
    with pytest.raises(ScheduleError, match="not an endpoint"):
        schedule.clear_link_at(1_000.0, AGG1_TOR1, from_node="st1")
    assert schedule.log == []
