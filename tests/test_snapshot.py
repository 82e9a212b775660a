"""Tests for lazy snapshotting (Algorithm 1) and snapshot replication."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Simulator, deploy, RedPlaneConfig
from repro.apps.counter import AsyncCounterApp
from repro.core.snapshot import LazySnapshotArray
from repro.net.packet import FlowKey, Packet
from repro.switch.pipeline import PipelineContext


def ctx():
    return PipelineContext(pkt=Packet(), now=0.0)


def test_updates_accumulate():
    array = LazySnapshotArray("a", 8)
    for _ in range(5):
        array.update(ctx(), 3, 1)
    assert array.cp_live_values()[3] == 5


def test_snapshot_read_returns_frozen_values():
    array = LazySnapshotArray("a", 4)
    for i in range(4):
        array.update(ctx(), i, 10 + i)
    # Take a snapshot: slot 0 flips the buffer.
    frozen = [array.snapshot_read(ctx(), i) for i in range(4)]
    assert frozen == [10, 11, 12, 13]


def test_updates_during_snapshot_do_not_corrupt_it():
    """The crux of Algorithm 1: a consistent snapshot under concurrent
    updates, even though only one register entry is touched per packet."""
    array = LazySnapshotArray("a", 4)
    for i in range(4):
        array.update(ctx(), i, 100)
    # Begin a snapshot (flip), read slot 0 only.
    got0 = array.snapshot_read(ctx(), 0)
    # Traffic updates slots 1 and 2 *after* the flip but before they are
    # snapshot-read.
    array.update(ctx(), 1, 5)
    array.update(ctx(), 2, 7)
    got_rest = [array.snapshot_read(ctx(), i) for i in range(1, 4)]
    # The snapshot reflects the pre-flip state exactly.
    assert [got0] + got_rest == [100, 100, 100, 100]
    # The live values kept the concurrent updates.
    assert array.cp_live_values() == [100, 105, 107, 100]


def test_second_snapshot_sees_interim_updates():
    array = LazySnapshotArray("a", 2)
    array.update(ctx(), 0, 1)
    assert [array.snapshot_read(ctx(), i) for i in range(2)] == [1, 0]
    array.update(ctx(), 0, 2)
    array.update(ctx(), 1, 9)
    assert [array.snapshot_read(ctx(), i) for i in range(2)] == [3, 9]
    assert array.snapshots_taken == 2


def test_cp_install_restores_values():
    array = LazySnapshotArray("a", 3)
    array.cp_install([7, 8, 9])
    assert array.cp_live_values() == [7, 8, 9]
    array.update(ctx(), 1, 1)
    assert array.cp_live_values() == [7, 9, 9]
    with pytest.raises(ValueError):
        array.cp_install([1])


class NaiveTwoBuffer:
    """Reference model: an explicit frozen copy taken atomically."""

    def __init__(self, size):
        self.live = [0] * size
        self.frozen = [0] * size

    def update(self, index, delta):
        self.live[index] += delta

    def snapshot(self):
        self.frozen = list(self.live)

    def read_frozen(self, index):
        return self.frozen[index]


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["update", "snapshot"]),
              st.integers(min_value=0, max_value=7),
              st.integers(min_value=1, max_value=5)),
    max_size=60,
))
def test_lazy_snapshot_matches_reference_model(ops):
    """Property: interleaved updates + snapshots match an atomic-copy model.

    A 'snapshot' op flips the lazy array and reads ALL slots (as the packet
    generator burst does); reads must equal the reference's frozen copy.
    """
    size = 8
    lazy = LazySnapshotArray("a", size)
    ref = NaiveTwoBuffer(size)
    for op, index, delta in ops:
        if op == "update":
            assert lazy.update(ctx(), index, delta) == ref.live[index] + delta
            ref.update(index, delta)
        else:
            ref.snapshot()
            got = [lazy.snapshot_read(ctx(), i) for i in range(size)]
            assert got == ref.frozen


def test_periodic_replication_end_to_end():
    """Async-Counter: snapshots reach the store within one period."""
    sim = Simulator(seed=4)
    dep = deploy(sim, lambda: AsyncCounterApp(slots=8))
    reps = dep.replicators
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    for i in range(20):
        pkt = Packet.udp(e1.ip, s11.ip, 5555, 7777)
        sim.schedule(i * 10.0, e1.send, pkt)
    sim.run(until=4_000)
    for agg in dep.bed.aggs:
        reps[agg.name].stop()
    sim.run_until_idle()

    active = max(dep.bed.aggs, key=lambda a: dep.apps[a.name].counters.cp_live_values().count(20))
    app = dep.apps[active.name]
    slot = app.slot_of(Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key())
    rec = dep.stores[0].records[AsyncCounterApp.STORE_KEY]
    # The store's snapshot of the hot slot reached the final count.
    assert rec.snapshot_vals[slot] == 20
    rep = reps[active.name]
    assert rep.slots_replicated >= 8
    assert rep.staleness_us() < float("inf")


def test_staleness_bound_tracked():
    sim = Simulator(seed=4)
    dep = deploy(sim, lambda: AsyncCounterApp(slots=4),
                 config=RedPlaneConfig(snapshot_period_us=500.0))
    rep = dep.replicators[dep.bed.aggs[0].name]
    assert rep.period_us == 500.0
    assert rep.staleness_us() == float("inf")
    sim.run(until=2_000)
    for r in dep.replicators.values():
        r.stop()
    sim.run_until_idle()
    # Epsilon: time since last complete snapshot stays near the period.
    assert rep.staleness_us() <= 2_000
