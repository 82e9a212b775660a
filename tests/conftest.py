"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import Simulator, deploy
from repro.apps import KV_SERVICE_IP, NAT_PUBLIC_IP, SEQUENCER_IP, VIP, NatApp
from repro.apps.counter import SyncCounterApp

#: The apps whose ``provision`` routes a service address: the address,
#: and whether rack clients address it directly (so the ToR uplinks
#: route it too).
SERVICE_ROUTES = {
    "nat": (NAT_PUBLIC_IP, False),
    "load_balancer": (VIP, False),
    "kv_store": (KV_SERVICE_IP, True),
    "sequencer": (SEQUENCER_IP, True),
}


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def records_built(monkeypatch):
    """A one-item list counting every ``TraceRecord`` constructed while
    the test runs (in this process), by either construction path: the
    constructor's ``__new__``, and the row alias ``Tracer.emit`` uses."""
    from repro.telemetry import trace

    built = [0]
    new = trace.TraceRecord.__new__
    new_row = trace._new_record

    def counted_new(cls, *args):
        built[0] += 1
        return new(cls, *args)

    def counted_new_row(cls, row):
        built[0] += 1
        return new_row(cls, row)

    monkeypatch.setattr(trace.TraceRecord, "__new__", counted_new)
    monkeypatch.setattr(trace, "_new_record", counted_new_row)
    return built


@pytest.fixture
def counter_deployment(sim):
    """A testbed running the sync per-flow counter on both agg switches."""
    return deploy(sim, SyncCounterApp)


@pytest.fixture
def nat_deployment(sim):
    """A testbed running the RedPlane NAT."""
    return deploy(sim, NatApp)


def drain(sim: Simulator, max_events: int = 5_000_000) -> None:
    """Run the simulation until no events remain."""
    sim.run_until_idle(max_events=max_events)


def stop_snapshots(dep) -> None:
    """For tests that read a snapshot app's switch state, not the store:
    stop the replicators ``deploy()`` started, so ``run_until_idle()``
    can drain (a running packet generator never goes idle)."""
    for rep in dep.replicators.values():
        rep.stop()
