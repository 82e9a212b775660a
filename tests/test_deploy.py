"""Tests for the one-call deployment helper."""

import pytest

from repro import RedPlaneConfig, Simulator, deploy
from repro.apps import BUILTIN_APPS
from repro.apps.counter import AsyncCounterApp, SyncCounterApp
from repro.core.engine import RedPlaneEngine, RedPlaneMode
from repro.core.snapshot import SnapshotReplicator
from repro.deploy import deploy_netchain
from repro.statestore import ShardMap, StateStoreNode


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


def test_engine_of(sim):
    dep = deploy(sim, SyncCounterApp)
    for agg in dep.switches:
        assert dep.engine_of(agg) is dep.engines[agg.name]


def test_config_propagates(sim):
    cfg = RedPlaneConfig(lease_period_us=123_456.0, max_flows=17)
    dep = deploy(sim, SyncCounterApp, config=cfg)
    for engine in dep.engines.values():
        assert engine.config.lease_period_us == 123_456.0
        assert engine.config.max_flows == 17
    # The store grants leases of the same duration.
    assert all(st.lease_period_us == 123_456.0 for st in dep.stores)


@pytest.mark.parametrize("deploy_fn", [deploy, deploy_netchain])
def test_store_and_switch_agree_on_the_lease_period(sim, deploy_fn):
    """Mechanism 4: the store must not re-grant a flow while a switch
    still believes it owns it, so there is one lease period per run."""
    dep = deploy_fn(sim, SyncCounterApp,
                    config=RedPlaneConfig(lease_period_us=100_000.0))
    granters = dep.stores or [dep.netchain]
    assert {g.lease_period_us for g in granters} == {100_000.0}
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


@pytest.mark.parametrize("deploy_fn", [deploy, deploy_netchain])
def test_snapshot_period_reaches_the_replicators(sim, deploy_fn):
    dep = deploy_fn(sim, AsyncCounterApp,
                    config=RedPlaneConfig(snapshot_period_us=250.0))
    assert [r.period_us for r in dep.replicators.values()] == [250.0, 250.0]
    default = deploy(Simulator(seed=0), AsyncCounterApp)
    assert {r.period_us for r in default.replicators.values()} == {1_000.0}


def test_allocator_reaches_stores(sim):
    allocator = lambda key: [7]
    dep = deploy(sim, SyncCounterApp, allocator=allocator)
    assert all(st.allocator is allocator for st in dep.stores)


def test_oversized_chain_rejected(sim):
    with pytest.raises(ValueError):
        deploy(sim, SyncCounterApp, num_shards=3, chain_length=2)


# -- deploy_netchain: the in-switch store deployment --------------------------


def test_deploy_netchain_wiring(sim):
    from repro.statestore.netchain import (
        NETCHAIN_UDP_PORT,
        NetChainBackend,
        NetChainStoreBlock,
    )
    from repro.switch.asic import SwitchASIC

    dep = deploy_netchain(sim, SyncCounterApp, store_size=64)
    assert isinstance(dep.netchain, NetChainStoreBlock)
    assert isinstance(dep.netchain.backend, NetChainBackend)
    assert dep.netchain.backend.size == 64
    # tor1 became the store switch; the other ToRs stayed plain routers.
    tor = dep.bed.tors[0]
    assert isinstance(tor, SwitchASIC)
    assert dep.netchain.switch is tor
    assert not isinstance(dep.bed.tors[1], SwitchASIC)
    # The shard map points every engine at the ToR's in-switch port.
    addr = dep.shard_map.addresses()[0]
    assert addr.ip == tor.ip and addr.udp_port == NETCHAIN_UDP_PORT
    # No server store participates.
    assert dep.stores == []


def test_deploy_netchain_end_to_end(sim):
    """Counter traffic commits through the in-switch store: every packet's
    synchronous write is acked by tor1's pipeline, and the record mirror
    tracks the register state."""
    from repro.net.packet import Packet

    dep = deploy_netchain(sim, SyncCounterApp)
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    for i in range(8):
        pkt = Packet.udp(e1.ip, s11.ip, 5555, 7777)
        pkt.ip.identification = i
        sim.schedule(i * 200.0, e1.send, pkt)
    sim.run_until_idle()

    flow = Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key()
    rec = dep.netchain.backend.get(flow)
    assert rec is not None and rec.initialized
    assert rec.last_seq == 8
    assert rec.vals == [8]
    # The registers agree with the control-plane mirror.
    idx = dep.netchain.backend.slot(flow)
    assert dep.netchain.backend.reg_seq.cp_read(idx) == 8
    assert dep.netchain.backend.reg_vals[0].cp_read(idx) == 8
