"""Tests for the one-call deployment helper."""

import pytest

from repro import RedPlaneConfig, Simulator, deploy
from repro.apps import BUILTIN_APPS
from repro.apps.counter import AsyncCounterApp, SyncCounterApp
from repro.core.engine import RedPlaneEngine, RedPlaneMode
from repro.core.snapshot import SnapshotReplicator
from repro.statestore import ShardMap, StateStoreNode
from tests.conftest import SERVICE_ROUTES


def test_default_deployment_shape(sim):
    dep = deploy(sim, SyncCounterApp)
    assert len(dep.switches) == 2
    assert set(dep.engines) == {"agg1", "agg2"}
    assert all(isinstance(e, RedPlaneEngine) for e in dep.engines.values())
    assert len(dep.stores) == 3
    assert all(isinstance(st, StateStoreNode) for st in dep.stores)
    assert dep.shard_map.num_shards == 1
    assert isinstance(dep.shard_map, ShardMap)
    # One chain of three: st1 -> st2 -> st3.
    assert dep.stores[0].successor_ip == dep.stores[1].ip
    assert dep.stores[1].successor_ip == dep.stores[2].ip
    assert dep.stores[2].successor_ip is None
    assert dep.chains == [[dep.stores[0], dep.stores[1], dep.stores[2]]]


def test_three_single_node_shards(sim):
    dep = deploy(sim, SyncCounterApp, num_shards=3, chain_length=1)
    assert dep.shard_map.num_shards == 3
    assert all(st.successor_ip is None for st in dep.stores)
    heads = {a.ip for a in dep.shard_map.addresses()}
    assert heads == {st.ip for st in dep.stores}


def test_each_switch_gets_its_own_app(sim):
    dep = deploy(sim, SyncCounterApp)
    assert dep.apps["agg1"] is not dep.apps["agg2"]


def test_config_propagates(sim):
    cfg = RedPlaneConfig(lease_period_us=123_456.0, max_flows=17)
    dep = deploy(sim, SyncCounterApp, config=cfg)
    for engine in dep.engines.values():
        assert engine.config.lease_period_us == 123_456.0
        assert engine.config.max_flows == 17
    # The store grants leases of the same duration.
    assert all(st.lease_period_us == 123_456.0 for st in dep.stores)


@pytest.mark.parametrize("deploy_fn", [deploy])
def test_store_and_switch_agree_on_the_lease_period(sim, deploy_fn):
    """Mechanism 4: the store must not re-grant a flow while a switch
    still believes it owns it, so there is one lease period per run."""
    dep = deploy_fn(sim, SyncCounterApp,
                    config=RedPlaneConfig(lease_period_us=100_000.0))
    assert {st.lease_period_us for st in dep.stores} == {100_000.0}
    assert {e.config.lease_period_us for e in dep.engines.values()} == {
        100_000.0
    }
    with pytest.raises(TypeError):
        deploy_fn(sim, SyncCounterApp, lease_period_us=100_000.0)


# -- the app declares its consistency mode; deploy() wires it -----------------

SNAPSHOT_APPS = {"async_counter", "heavy_hitter", "superspreader"}


@pytest.mark.parametrize("name", sorted(BUILTIN_APPS))
def test_mode_and_replicator_follow_the_app(name):
    dep = deploy(Simulator(seed=0), BUILTIN_APPS[name])
    for agg in dep.bed.aggs:
        engine, first = dep.engines[agg.name], agg.pipeline.blocks[0]
        if name in SNAPSHOT_APPS:
            assert engine.mode is RedPlaneMode.BOUNDED_INCONSISTENCY
            assert first is dep.replicators[agg.name]
            assert isinstance(first, SnapshotReplicator)
            assert first.structures == engine.app.snapshot_structures()
            assert agg.pktgen.enabled
        else:
            assert engine.mode is RedPlaneMode.LINEARIZABLE
            assert not any(isinstance(b, SnapshotReplicator)
                           for b in agg.pipeline.blocks)
    assert sorted(dep.replicators) == (
        ["agg1", "agg2"] if name in SNAPSHOT_APPS else []
    )


def test_mode_is_not_configurable():
    with pytest.raises(TypeError):
        RedPlaneConfig(mode=RedPlaneMode.BOUNDED_INCONSISTENCY)


@pytest.mark.parametrize("deploy_fn", [deploy])
def test_snapshot_period_reaches_the_replicators(sim, deploy_fn):
    dep = deploy_fn(sim, AsyncCounterApp,
                    config=RedPlaneConfig(snapshot_period_us=250.0))
    assert [r.period_us for r in dep.replicators.values()] == [250.0, 250.0]
    default = deploy(Simulator(seed=0), AsyncCounterApp)
    assert {r.period_us for r in default.replicators.values()} == {1_000.0}


# -- the app provisions its own testbed --------------------------------------


@pytest.mark.parametrize("name", sorted(BUILTIN_APPS))
def test_deploy_provisions_the_app(name):
    """A bare ``deploy()`` routes a service app's address from every core
    to both aggs (and nothing else's), and the load balancer's stores
    share one DIP allocator."""
    dep = deploy(Simulator(seed=0), BUILTIN_APPS[name])
    expected = [SERVICE_ROUTES[name][0]] if name in SERVICE_ROUTES else []
    for core in dep.bed.cores:
        anycast = [r.prefix for r in core.table.routes() if r.mask_len == 32
                   and sorted(p.link.other_end(p).node.name for p in r.ports)
                   == ["agg1", "agg2"]]
        assert anycast == expected, core.name
    allocators = {st.allocator for st in dep.stores}
    if name == "load_balancer":
        assert len(allocators) == 1 and None not in allocators
    else:
        assert allocators <= {None}


def test_oversized_chain_rejected(sim):
    with pytest.raises(ValueError):
        deploy(sim, SyncCounterApp, num_shards=3, chain_length=2)
