"""Tests for mirror-copy lifecycle: release on acknowledgment, not timeout."""

import math

import pytest

from repro import RedPlaneConfig, Simulator, deploy
from repro.apps.counter import AsyncCounterApp, SyncCounterApp
from repro.chaos.campaigns import CAMPAIGNS
from repro.chaos.runner import run_campaign_result
from repro.chaos.workload import CounterWorkload, EchoCounterApp
from repro.core.app import AppVerdict
from repro.core.engine import RedPlaneEngine
from repro.core.protocol import MessageType, RedPlaneMessage
from repro.net import constants
from repro.net.links import Link, LinkImpairment, SinkNode
from repro.net.packet import Packet, ip_aton
from repro.scenarios import SCENARIOS
from repro.switch.asic import SwitchASIC
from repro.switch.mirror import MirrorSession
from repro.telemetry import trace as tt
from repro.workloads.failures import FailureSchedule


def test_copy_released_when_ack_arrives_not_at_timeout():
    """With a 1 ms RTO, an acked write's copy must leave the buffer after
    one store round trip (~tens of us), not after the timeout."""
    sim = Simulator(seed=1)
    dep = deploy(sim, SyncCounterApp, chain_length=1,
                 config=RedPlaneConfig(retransmit_timeout_us=1_000.0))
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    e1.send(Packet.udp(e1.ip, s11.ip, 5555, 7777))
    sim.run(until=200.0)  # well before the 1 ms timeout
    for agg in dep.bed.aggs:
        assert agg.buffer_occupancy == 0
        assert dep.engines[agg.name].mirror.active_copies == 0
    sim.run_until_idle()
    # And no retransmissions were ever needed.
    assert all(e.stats["retransmissions"] == 0 for e in dep.engines.values())


def test_lost_ack_copy_survives_until_retransmission():
    sim = Simulator(seed=6)
    dep = deploy(sim, SyncCounterApp, chain_length=1,
                 config=RedPlaneConfig(retransmit_timeout_us=500.0))
    dep.bed.impair_fabric(LinkImpairment(drop_rate=1.0))
    # 100% fabric loss: the request itself is lost; the copy must persist.
    # (Inject at the switch: the fabric would otherwise eat the probe too.)
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    dep.bed.aggs[0].process(Packet.udp(e1.ip, s11.ip, 5555, 7777))
    sim.run(until=400.0)
    eng = max(dep.engines.values(), key=lambda e: e.stats["lease_requests"])
    assert eng.mirror.active_copies == 1
    assert eng.switch.buffer_occupancy > 0
    sim.run(until=2_000.0)
    assert eng.stats["retransmissions"] >= 1


def test_release_is_idempotent():
    sim = Simulator()
    sw = SwitchASIC(sim, "sw", ip=ip_aton("10.254.0.9"))
    sink = SinkNode(sim, "sink")
    Link(sim, sw.new_port(), sink.new_port())
    sw.table.add(0, 0, [sw.ports[0]])
    session = sw.new_mirror_session(lambda state: sim.now + 1.0)
    copy = session.mirror(Packet.udp(1, 2, 3, 4), None, 1.0)
    assert session.active_copies == 1
    session.release(copy)
    session.release(copy)
    assert session.active_copies == 0
    assert sw.buffer_occupancy == 0
    sim.run_until_idle()  # the cancelled pass event must not fire


def test_released_copy_pass_is_noop():
    sim = Simulator()
    sw = SwitchASIC(sim, "sw", ip=1)
    passes = []
    # A pass asked for at time 0 is clamped to one pass interval out.
    session = sw.new_mirror_session(lambda state: passes.append(sim.now) or 0.0)
    copy = session.mirror(Packet.udp(1, 2, 3, 4), None, 0.0)
    sim.run(until=5.0)
    assert passes == [1.0, 2.0, 3.0, 4.0, 5.0]
    count = len(passes)
    session.release(copy)
    sim.run(until=50.0)
    assert len(passes) == count  # no further passes after release


# -- the retransmission ledger ----------------------------------------------


def _live(copies):
    """Copies of one ledger entry the mirror still circulates."""
    return sum(not copy.released for copy in copies.values())


def _live_in_ledger(eng):
    return sum(_live(copies) for copies in eng._inflight.values())


def _watch_ledgers(sim, engines, every_us=25.0):
    """Sample every ``every_us`` until the run is otherwise idle.

    Returns ``(mismatches, peak)``: the samples at which an engine's
    ledger disagreed with its mirror session's ``active_copies``, and
    ``peak["<switch>"]`` (peak ``active_copies``) plus
    ``peak["per_request"]`` (peak live copies of any one request).
    """
    mismatches = []
    peak = dict.fromkeys([eng.switch.name for eng in engines] + ["per_request"], 0)

    def sample():
        for eng in engines:
            active = eng.mirror.active_copies
            peak[eng.switch.name] = max(peak[eng.switch.name], active)
            live = _live_in_ledger(eng)
            if live != active:
                mismatches.append((sim.now, eng.switch.name, live, active))
            for copies in eng._inflight.values():
                peak["per_request"] = max(peak["per_request"], _live(copies))
        if sim.pending_events:
            sim.schedule(every_us, sample)

    sim.schedule(0.0, sample)
    return mismatches, peak


def test_copy_that_died_with_its_switch_is_not_acked():
    """A copy the mirror dropped on a failed switch stays unreported.

    agg2 carries the flow and is down for 100 ms. The write copies in its
    buffer die with it; after recovery a later write ack covers their
    sequence numbers, and it must not trace them as acknowledged with the
    outage as their round trip.
    """
    sim = Simulator(seed=42)
    dep = deploy(sim, EchoCounterApp,
                 config=RedPlaneConfig(lease_period_us=200_000.0))
    acks = []
    sim.tracer.sinks.append(
        lambda r: acks.append(r.fields) if r.type == tt.RP_ACK else None)
    CounterWorkload(dep, packets=6_000, gap_us=50.0, start_us=10_000.0).start()
    schedule = FailureSchedule(dep, detect_delay_us=1_000.0)
    schedule.fail_switch_at(60_010.0, "agg2")
    schedule.recover_switch_at(160_010.0, "agg2")
    mismatches, _peak = _watch_ledgers(sim, list(dep.engines.values()))
    sim.run_until_idle()

    agg2 = [a for a in acks if a["switch"] == "agg2"]
    assert agg2, "the scenario must route the flow through agg2"
    assert max(a["rtt_us"] for a in agg2) < 100.0
    rtt = sim.metrics.histogram("redplane.ack_rtt_us", switch="agg2")
    assert rtt.summary()["max"] < 100.0
    assert mismatches == []
    assert all(_live_in_ledger(e) == 0 for e in dep.engines.values())


def test_store_outage_keeps_one_snapshot_copy_per_slot():
    """Bounded mode, chain head down for 10 ms: each new epoch settles the
    slot's older copy, so the ledger and the mirror agree at every sample
    and no slot ever has two copies circulating."""
    sim = Simulator(seed=4)
    dep = deploy(sim, lambda: AsyncCounterApp(slots=4))
    store = dep.stores[0]
    sim.schedule_at(2_000.0, store.fail)
    sim.schedule_at(12_000.0, store.recover)
    engines = list(dep.engines.values())
    mismatches, peak = _watch_ledgers(sim, engines)
    sim.run(until=20_000.0)
    for rep in dep.replicators.values():
        rep.stop()
    sim.run_until_idle()

    assert sum(e.stats["retransmissions"] for e in engines) > 0
    assert mismatches == []
    assert peak["per_request"] == 1
    assert max(peak[e.switch.name] for e in engines) == 4  # one per slot
    assert all(e.mirror.active_copies == 0 for e in engines)


class ReadOnlyCounterApp(SyncCounterApp):
    """Reads its flow's state and never writes it: every packet after the
    lease grant takes the fast path, where renewals are sent."""

    name = "read-only-counter"

    def process(self, state, pkt, ctx, switch):
        state.get("count")
        return AppVerdict.FORWARD


def test_renewals_during_store_outage_hold_one_copy_per_flow():
    """Renewals fall due every 200 us while the store is down for 2 ms:
    each is sent, but only the first is mirrored, and the renew ack that
    finally returns settles it."""
    sim = Simulator(seed=4)
    dep = deploy(sim, ReadOnlyCounterApp, chain_length=1,
                 config=RedPlaneConfig(renew_interval_us=200.0))
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    for i in range(100):
        sim.schedule_at(i * 50.0, e1.send,
                        Packet.udp(e1.ip, s11.ip, 5555, 7777))
    store = dep.stores[0]
    sim.schedule_at(1_000.0, store.fail)
    sim.schedule_at(3_000.0, store.recover)
    engines = list(dep.engines.values())
    mismatches, peak = _watch_ledgers(sim, engines)
    sim.run_until_idle()

    eng = max(engines, key=lambda e: e.stats["lease_renewals"])
    assert eng.stats["lease_renewals"] >= 10
    assert eng.stats["retransmissions"] > 0
    assert mismatches == []
    assert peak[eng.switch.name] == peak["per_request"] == 1
    assert _live_in_ledger(eng) == 0


def test_reused_sequence_number_never_orphans_a_copy():
    """Only a regressed sequence counter (the skip_lease_install_guard
    mutation) mirrors a second copy at a live seq; the one it replaces is
    released rather than left circulating outside the ledger."""
    sim = Simulator(seed=1)
    dep = deploy(sim, SyncCounterApp, chain_length=1)
    eng = dep.engines[dep.bed.aggs[0].name]
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    msg = RedPlaneMessage(
        seq=1, msg_type=MessageType.REPL_WRITE_REQ,
        flow_key=Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key(), vals=[1])

    def request(uid):
        req = Packet.udp(e1.ip, s11.ip, 5555, 7777)
        req.meta["uid"] = uid
        return req

    eng._mirror_request(msg, ("write", 0), request(1))
    eng._mirror_request(msg, ("write", 0), request(2))
    assert eng.mirror.active_copies == _live_in_ledger(eng) == 1
    eng.shutdown()
    assert eng.mirror.active_copies == 0


# -- when a copy takes a pass, and when it is resent ------------------------


def _count_passes(monkeypatch):
    """Record the simulated time of every ``MirrorSession._one_pass``."""
    times = []
    real = MirrorSession._one_pass

    def counting(self, copy):
        times.append(self.asic.sim.now)
        real(self, copy)

    monkeypatch.setattr(MirrorSession, "_one_pass", counting)
    return times


def test_a_lossless_write_path_makes_no_mirror_pass(monkeypatch):
    """``tests/test_links.py::test_write_path_call_budget``'s run: every
    request is acked well inside its 48 us deadline, so no copy ever takes
    a pass. While the first pass fell ``MIRROR_PASS_US`` after the send
    and found the deadline still ahead, the run executed 25 955 events
    (one no-op pass per mirrored request, 701 of them); now 25 254."""
    passes = _count_passes(monkeypatch)
    packets = 700
    sim = Simulator(seed=0)
    dep = deploy(sim, SyncCounterApp)
    sender, receiver = dep.bed.externals[0], dep.bed.servers[0]

    def send():
        sender.send(Packet.udp(sender.ip, receiver.ip, 5555, 7777))

    for i in range(packets):
        sim.schedule_at(i * 10.0, send)
    sim.run_until_idle()
    assert receiver.rx_packets == packets
    assert sum(e.stats["writes_replicated"] for e in dep.engines.values()) \
        == packets
    assert passes == []
    assert sim.events_executed == 25_254


def _never_acked(send_at):
    """One packet into a fabric that loses everything: its lease request
    is mirrored and never acknowledged. Returns the simulator, the engine
    and the ``retransmit`` records' times as they are traced."""
    sim = Simulator(seed=6)
    dep = deploy(sim, SyncCounterApp, chain_length=1)
    dep.bed.impair_fabric(LinkImpairment(drop_rate=1.0))
    resent = []
    sim.tracer.sinks.append(
        lambda r: resent.append(r.ts) if r.type == tt.RETRANSMIT else None)
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    agg = dep.bed.aggs[0]
    sim.schedule_at(send_at, agg.process,
                    Packet.udp(e1.ip, s11.ip, 5555, 7777))
    return sim, dep.engines[agg.name], resent


def test_a_copy_takes_its_first_pass_at_its_deadline(monkeypatch):
    passes = _count_passes(monkeypatch)
    sim, eng, resent = _never_acked(send_at=1_000.0)
    sim.run(until=1_047.9)
    assert eng.mirror.active_copies == 1
    assert passes == []
    sim.run(until=1_100.0)
    assert passes == resent == [1_048.0]
    eng.shutdown()


@pytest.mark.parametrize("send_at", [1_000.0, 0.1, 77.7])
def test_a_never_acked_request_resends_on_the_backoff_ladder(send_at):
    """48 us doubling to the 5 ms cap after seven resends, then every
    5 ms for as long as the request is outstanding — at any send time.
    Each pass is scheduled at the absolute deadline it tests against, so
    no rounding of a relative delay can find the deadline one step
    ahead and slip the resend to the next 1 us pass (sent at 77.7 us, a
    relative delay resent at +145 us instead of +144)."""
    sim, eng, resent = _never_acked(send_at=send_at)
    sim.run(until=send_at + 26_000.0)
    eng.shutdown()
    ladder = [48, 144, 336, 720, 1_488, 3_024, 6_096]
    ladder += [6_096 + 5_000 * k for k in range(1, 4)]
    assert [t - send_at for t in resent] == pytest.approx(ladder, abs=1e-6)
    assert eng.stats["retransmissions"] == len(ladder)


def _released_requests(monkeypatch):
    """Record ``(kind, resends, wait_us)`` for every request copy that
    ``RedPlaneEngine._release`` settles, ``wait_us`` running from the
    request's first send to its release. Each entry of ``first_sent``
    holds its ``RetransmitState`` so that no other object reuses the id."""
    first_sent = {}
    released = []
    real_mirror, real_release = (RedPlaneEngine._mirror_request,
                                 RedPlaneEngine._release)

    def mirror_request(self, msg, key, req):
        real_mirror(self, msg, key, req)
        rtx = self._inflight[key][msg.seq].state
        first_sent[id(rtx)] = (rtx, self.switch.sim.now)

    def release(self, key, upto_seq=math.inf):
        settled = real_release(self, key, upto_seq)
        for _seq, rtx in settled:
            _rtx, sent = first_sent.pop(id(rtx))
            released.append((rtx.kind, rtx.resends,
                             self.switch.sim.now - sent))
        return settled

    monkeypatch.setattr(RedPlaneEngine, "_mirror_request", mirror_request)
    monkeypatch.setattr(RedPlaneEngine, "_release", release)
    return released


def _resend_slack(released):
    """Least of ``7 + ceil(wait / 5 ms) - resends`` over the requests."""
    cap = constants.RETRANSMIT_TIMEOUT_MAX_US
    return min(7 + math.ceil(wait / cap) - resends
               for _kind, resends, wait in released)


def test_resends_per_request_are_bounded_by_the_ladder_on_quickstart(
        monkeypatch):
    """ROADMAP item 5's first invariant: the ladder resends seven times
    before it reaches the 5 ms cap, then once per 5 ms, so a request
    released after ``wait`` was resent at most ``7 + ceil(wait / 5 ms)``
    times. The quickstart's ``lease_new``, buffered at the store behind
    the failed owner's lease, comes closest: 106 resends over 501.8 ms
    against a bound of 108."""
    released = _released_requests(monkeypatch)
    SCENARIOS["quickstart"].run(Simulator(seed=7))
    assert released
    assert _resend_slack(released) >= 2
    kind, resends, wait = max(released, key=lambda r: r[1])
    assert (kind, resends) == ("lease_new", 106)
    assert wait == pytest.approx(501_800.0, abs=100.0)


def test_resends_per_request_are_bounded_by_the_ladder_on_failover(
        monkeypatch):
    """The same invariant over the ``single_failover`` campaign, whose
    writes are resent toward the failed switch's store path: the worst
    is resent 15 times against a bound of 18."""
    released = _released_requests(monkeypatch)
    result = run_campaign_result(CAMPAIGNS["single_failover"])
    assert result.report["verdict"] == "PASS"
    assert released
    assert _resend_slack(released) >= 2
    writes = [r for r in released if r[0] == "write"]
    assert max(resends for _kind, resends, _wait in writes) == 15
