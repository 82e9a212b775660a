"""The contract ``Simulator._drain`` rests on when it pauses the cyclic
collector: *executing events creates no cyclic garbage*.

Reference counting frees every packet, event, trace record and history
event the hot path allocates; the generational collector therefore has
nothing to free during a run, and a collection that frees nothing still
walks the whole live heap. These tests pin both halves — no collection
starts inside a drain, and none was needed — on three scenarios that
between them reach every allocation site of the hot path, plus one that
reaches the lease migration. If one of them reports garbage, break the
cycle at its source; do not relax the assertion (a cycle made per event
now lives until its drain returns).
"""

import gc

import pytest

from repro import deploy
from repro.apps.counter import SyncCounterApp
from repro.apps.nat import NatApp, install_nat_routes
from repro.chaos.campaigns import CAMPAIGNS
from repro.chaos.runner import run_campaign_result
from repro.net.packet import Packet
from repro.net.simulator import Simulator
from repro.shard.scenarios import run_quickstart
from repro.telemetry import trace as tt


class DrainProbe:
    """What the collector did around every outermost ``Simulator._drain``.

    The probe sits *around* the drain — inside a handler
    ``gc.isenabled()`` is false by construction. ``started`` lists the
    generation of each collection that began inside a drain; ``garbage``
    has, per drain, the number of unreachable objects a full collection
    found right after it, with the simulator, the deployment and the
    results all still referenced (the heap was collected right before
    the drain, so whatever is found was made by the events)."""

    def __init__(self):
        self.depth = 0
        self.started = []
        self.garbage = []

    def on_gc(self, phase, info):
        if phase == "start" and self.depth:
            self.started.append(info["generation"])


@pytest.fixture
def drains(monkeypatch):
    assert gc.isenabled()
    probe = DrainProbe()
    drain = Simulator._drain

    def probed(self, *args, **kwargs):
        if probe.depth:  # a handler stepping the simulator re-entrantly
            return drain(self, *args, **kwargs)
        gc.collect()
        probe.depth += 1
        try:
            return drain(self, *args, **kwargs)
        finally:
            probe.depth -= 1
            probe.garbage.append(gc.collect())

    monkeypatch.setattr(Simulator, "_drain", probed)
    gc.callbacks.append(probe.on_gc)
    try:
        yield probe
    finally:
        gc.callbacks.remove(probe.on_gc)


def _nat_steady(flows=50, per_flow=140):
    sim = Simulator(seed=0)
    dep = deploy(sim, NatApp)
    install_nat_routes(dep.bed)
    sender, external = dep.bed.servers[0], dep.bed.externals[0]

    def send(sport):
        sender.send(Packet.udp(sender.ip, external.ip, sport, 7777))

    for i in range(flows * per_flow):
        sim.schedule_at(i * 2.0, send, 5000 + i % flows)
    return sim, external


def test_nat_steady_state_run_makes_no_cyclic_garbage(drains):
    sim, external = _nat_steady()
    sim.run_until_idle()
    # 7 000 packets leave ~10^5 tracked objects live (ring, history,
    # retained packets): with the collector left on, gen 0 alone starts
    # more than a hundred times in this drain.
    assert drains.started == []
    assert drains.garbage == [0]
    assert external.rx_packets == 7_000
    assert sim.tracer.records_dropped > 0  # the ring filled and evicted


def test_lossy_write_path_makes_no_cyclic_garbage(drains):
    """Sync-Counter over lossy links: every packet is mirrored, the
    mirror pass resends what was lost, and an ack releases the copy and
    cancels its pending pass — ``MirrorCopy.event`` points at an
    ``Event`` whose args point back at the copy until then."""
    sim = Simulator(seed=3)
    bed = deploy(sim, SyncCounterApp, link_loss=0.02).bed
    sender, receiver = bed.externals[0], bed.servers[0]

    def send():
        sender.send(Packet.udp(sender.ip, receiver.ip, 5555, 7777))

    for i in range(300):
        sim.schedule_at(i * 40.0, send)
    sim.run_until_idle()
    assert drains.started == []
    assert drains.garbage == [0]
    total = sim.metrics.total
    assert total("redplane.retransmissions") > 0
    assert total("redplane.writes_replicated") > 200
    assert receiver.rx_packets > 200


def test_failover_campaign_makes_no_cyclic_garbage(drains):
    """``single_failover`` through the chaos runner: fault injection,
    retransmission ladders toward a dead switch, the invariant monitor,
    engine histories and the linearizability check."""
    result = run_campaign_result(CAMPAIGNS["single_failover"])
    assert drains.started == []
    assert drains.garbage == [0, 0]  # the campaign, then its drain phase
    assert result.report["verdict"] == "PASS"
    assert result.report["counters"]["retransmissions"] > 0


def test_lease_migration_makes_no_cyclic_garbage(drains):
    """The registry quickstart: the flow's owner fails, the second burst
    is buffered at the store behind the dead owner's lease and released
    by the migration grant. (At seed 42 the ``single_failover`` campaign's
    flow hashes to the switch that does *not* fail, so it never migrates;
    this scenario does.) Its deployment is local to ``run_quickstart`` and
    is itself cyclic garbage once that returns — nodes, ports and links
    point at each other — so only the per-drain figures are asserted."""
    sim = Simulator(seed=7)
    run_quickstart(sim, lambda until: sim.run(until=until))
    assert drains.started == []
    assert drains.garbage == [0, 0, 0]
    total = sim.metrics.total
    assert total("store.requests_buffered") > 0
    assert total("store.leases_granted") == 2
    grants = sim.tracer.records_of(tt.LEASE_GRANT)
    assert [g.fields["migrated"] for g in grants] == [False, True]
