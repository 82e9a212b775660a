"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import Simulator, deploy
from repro.apps import NatApp, install_nat_routes
from repro.apps.counter import SyncCounterApp


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def counter_deployment(sim):
    """A testbed running the sync per-flow counter on both agg switches."""
    return deploy(sim, SyncCounterApp)


@pytest.fixture
def nat_deployment(sim):
    """A testbed running the RedPlane NAT, with public routes installed."""
    dep = deploy(sim, NatApp)
    install_nat_routes(dep.bed)
    return dep


def drain(sim: Simulator, max_events: int = 5_000_000) -> None:
    """Run the simulation until no events remain."""
    sim.run_until_idle(max_events=max_events)


def stop_snapshots(dep) -> None:
    """For tests that read a snapshot app's switch state, not the store:
    stop the replicators ``deploy()`` started, so ``run_until_idle()``
    can drain (a running packet generator never goes idle)."""
    for rep in dep.replicators.values():
        rep.stop()
