"""Tests for runtime invariant monitors."""

import pytest

from repro import RedPlaneConfig, Simulator, deploy
from repro.apps.counter import SyncCounterApp
from repro.chaos.campaigns import CAMPAIGNS
from repro.chaos.fuzz import generate_spec, run_spec
from repro.chaos.runner import run_campaign_result
from repro.identity import compare, fingerprint, watch
from repro.model.monitors import InvariantMonitor
from repro.mutation import seeded_bug
from repro.net.packet import Packet
from repro.statestore.server import StateStoreNode
from repro.switch.pipeline import PipelineContext


# ---------------------------------------------------------------------------
# invariant monitors
# ---------------------------------------------------------------------------


class TestInvariantMonitor:
    def run_workload(self, sim, dep, n=10, fail=False):
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        got = []
        s11.default_handler = got.append
        for i in range(n):
            sim.schedule(i * 500.0, e1.send,
                         Packet.udp(e1.ip, s11.ip, 5555, 7777))
        if fail:
            owner_probe = n * 500.0 + 5_000.0
            sim.schedule(owner_probe, dep.bed.topology.fail_node,
                         dep.bed.aggs[0])
        sim.run_until_idle()
        return got

    @staticmethod
    def monitor(sim, dep):
        return InvariantMonitor(sim, dep.stores,
                                engines=list(dep.engines.values()))

    def test_clean_run_has_no_violations(self, sim, counter_deployment):
        dep = counter_deployment
        monitor = self.monitor(sim, dep)
        assert len(self.run_workload(sim, dep)) == 10
        assert monitor.ok(), monitor.report()
        assert "OK" in monitor.report()

    def test_failover_run_keeps_invariants(self, sim):
        dep = deploy(sim, SyncCounterApp,
                     config=RedPlaneConfig(lease_period_us=100_000.0))
        monitor = self.monitor(sim, dep)
        self.run_workload(sim, dep, fail=True)
        assert monitor.ok(), monitor.report()

    def test_monitoring_is_passive(self):
        """Its hooks are called, never scheduled, and only read: a
        monitored run executes the same events and emits the same trace
        and metrics as an unmonitored one."""
        prints, installs = [], []
        for monitored in (False, True):
            sim = Simulator(seed=42)
            dep = deploy(sim, SyncCounterApp,
                         config=RedPlaneConfig(lease_period_us=100_000.0))
            if monitored:
                monitor = self.monitor(sim, dep)
                check = monitor.lease_installed
                monitor.lease_installed = \
                    lambda *args: (installs.append(args), check(*args))
            hasher = watch(sim)
            self.run_workload(sim, dep, fail=True)
            prints.append(fingerprint(sim, hasher))
        assert all(compare(*prints).values()), compare(*prints)
        # ... and the monitored run did check both kinds of event.
        assert installs and monitor._last_seq and monitor.ok()

    def test_detects_seeded_sequence_regression(self, monkeypatch):
        """``skip_store_dedup`` lets a late duplicate regress st1's record
        at seed-5 schedule 2; the monitor flags that write as it happens,
        while the delivered history stays linearizable."""
        apply, regressions = StateStoreNode._apply, []

        def recording_apply(node, rec, msg, requester_ip, now):
            before = rec.last_seq
            reply = apply(node, rec, msg, requester_ip, now)
            if rec.last_seq < before:
                regressions.append(now)
            return reply

        monkeypatch.setattr(StateStoreNode, "_apply", recording_apply)
        with seeded_bug("skip_store_dedup"):
            result = run_spec(generate_spec(5, 2))
        first = result.monitor.violations[0]
        assert first.invariant == "SequenceMonotonicity"
        assert first.time_us == regressions[0] == \
            pytest.approx(190_114.79, abs=0.01)
        assert result.report["linearizable"]
        assert "violation" in result.monitor.report()

    def test_detects_double_lease_install(self, sim, counter_deployment):
        """A second switch installing a lease the first still holds is
        flagged at that install."""
        dep = counter_deployment
        monitor = self.monitor(sim, dep)
        e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
        pkt = Packet.udp(e1.ip, s11.ip, 5555, 7777)
        key = pkt.flow_key()
        e1.send(pkt)
        sim.run(until=2_000.0)
        (owner,) = [e for e in dep.engines.values() if e.lease_valid(key)]
        (other,) = [e for e in dep.engines.values() if e is not owner]
        assert monitor.ok()
        # Plant: the other switch installs the lease as if a store acked it.
        ack = Packet.udp(dep.stores[-1].ip, other.switch.ip, 1, 1)
        other._extend_lease(PipelineContext(pkt=ack, now=sim.now), key,
                            other._flow_index(key), sim.now)
        assert [(v.time_us, v.invariant) for v in monitor.violations] \
            == [(sim.now, "SingleOwnerInvariant")]
        detail = monitor.violations[0].detail
        assert owner.switch.name in detail and other.switch.name in detail

    def test_lease_agreement_alone_kills_engine_lease_drift(self):
        """Switches that derive their lease beliefs from twice the store's
        period break §5.3 at the first install; only the LeaseAgreement
        check sees it, since one owner's history stays linearizable."""
        with seeded_bug("engine_lease_drift"):
            result = run_campaign_result(CAMPAIGNS["single_failover"])
        kinds = {v.invariant for v in result.monitor.violations}
        assert kinds == {"LeaseAgreement"}
        assert result.report["linearizable"]
        assert result.report["verdict"] == "FAIL"
