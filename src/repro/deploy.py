"""One-call deployment of a RedPlane testbed.

Wires together the Appendix-D topology, programmable aggregation switches,
state-store servers (optionally chain-replicated), the shard map, and a
RedPlane-enabled application on each aggregation switch — the setup every
experiment in §7 starts from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.net.routing import L3Switch
from repro.net.simulator import Simulator
from repro.net.topology import Testbed, build_testbed
from repro.switch.asic import SwitchASIC
from repro.core.app import InSwitchApp
from repro.core.engine import RedPlaneConfig, RedPlaneEngine, RedPlaneMode
from repro.core.api import attach_netchain_store, attach_redplane
from repro.core.protocol import STORE_UDP_PORT
from repro.core.snapshot import SnapshotReplicator
from repro.statestore.backend import StateStoreBackend
from repro.statestore.netchain import (
    NETCHAIN_UDP_PORT,
    NetChainBackend,
    NetChainStoreBlock,
)
from repro.statestore.server import StateAllocator, StateStoreNode, build_chain
from repro.statestore.sharding import ShardAddress, ShardMap

#: Builds one application instance per switch (apps are stateful objects,
#: so each switch needs its own).
AppFactory = Callable[[], InSwitchApp]

#: Builds one storage backend per store node, keyed by the node's name.
#: ``None`` keeps the default in-memory backend.
BackendFactory = Callable[[str], StateStoreBackend]


@dataclass
class Deployment:
    """Everything an experiment needs handles to."""

    sim: Simulator
    bed: Testbed
    apps: Dict[str, InSwitchApp] = field(default_factory=dict)
    engines: Dict[str, RedPlaneEngine] = field(default_factory=dict)
    stores: List[StateStoreNode] = field(default_factory=list)
    shard_map: Optional[ShardMap] = None
    #: Store nodes grouped into replication chains, one list per shard.
    chains: List[List[StateStoreNode]] = field(default_factory=list)
    #: The in-switch store block when deployed via :func:`deploy_netchain`.
    netchain: Optional[NetChainStoreBlock] = None
    #: The running snapshot replicator of each agg switch whose app
    #: declares ``snapshot_structures()``; empty for linearizable apps.
    replicators: Dict[str, SnapshotReplicator] = field(default_factory=dict)

    @property
    def switches(self) -> List[SwitchASIC]:
        return self.bed.aggs  # type: ignore[return-value]

    def engine_of(self, switch: SwitchASIC) -> RedPlaneEngine:
        return self.engines[switch.name]


def _attach_apps(
    deployment: Deployment,
    app_factory: AppFactory,
    config: RedPlaneConfig,
) -> Deployment:
    """The tail both deploy functions share: a RedPlane-enabled app on
    every agg switch, then snapshot replication for the apps that declare
    ``snapshot_structures()``.

    The replicators go in a second pass, after every engine is attached,
    so the packet generators' first events are scheduled after all engine
    construction. Each replicator sits at pipeline index 0, ahead of its
    engine, so it claims the generator's snapshot-read packets.
    """
    for agg in deployment.bed.aggs:
        app = app_factory()
        engine = attach_redplane(
            agg, app, deployment.shard_map, config  # type: ignore[arg-type]
        )
        deployment.apps[agg.name] = app
        deployment.engines[agg.name] = engine
    for name, engine in deployment.engines.items():
        if engine.mode is not RedPlaneMode.LINEARIZABLE:
            replicator = SnapshotReplicator(engine)
            engine.switch.pipeline.blocks.insert(0, replicator)
            replicator.start()
            deployment.replicators[name] = replicator
    return deployment


def deploy(
    sim: Simulator,
    app_factory: AppFactory,
    num_shards: int = 1,
    chain_length: int = 3,
    config: Optional[RedPlaneConfig] = None,
    allocator: Optional[StateAllocator] = None,
    link_loss: float = 0.0,
    link_reorder: float = 0.0,
    backend_factory: Optional[BackendFactory] = None,
) -> Deployment:
    """Build the testbed and attach a RedPlane-enabled app to each agg switch.

    ``num_shards`` and ``chain_length`` carve the three store servers into
    replication groups: the prototype's configuration is one shard with a
    chain of three (one server per rack); Fig 13 uses up to three
    single-server shards. ``num_shards * chain_length`` must not exceed
    the three store servers of the testbed.

    ``backend_factory(name)`` selects the storage backend of each store
    node (e.g. ``lambda name: WALBackend(f"{dir}/{name}")`` for durable
    crash recovery); by default every node keeps the in-memory backend.
    """
    if num_shards * chain_length > 3:
        raise ValueError(
            "the testbed has 3 store servers; "
            f"{num_shards} shards x {chain_length} chain nodes do not fit"
        )
    config = config or RedPlaneConfig()

    def make_agg(sim_: Simulator, name: str, loopback_ip: int) -> SwitchASIC:
        return SwitchASIC(sim_, name, loopback_ip)

    def make_store(sim_: Simulator, name: str, ip: int) -> StateStoreNode:
        backend = backend_factory(name) if backend_factory is not None else None
        return StateStoreNode(
            sim_, name, ip, lease_period_us=config.lease_period_us,
            allocator=allocator, backend=backend,
        )

    bed = build_testbed(
        sim,
        agg_factory=make_agg,
        store_factory=make_store,
        link_loss=link_loss,
        link_reorder=link_reorder,
    )
    stores: List[StateStoreNode] = list(bed.store_servers)  # type: ignore[arg-type]

    heads: List[ShardAddress] = []
    chains: List[List[StateStoreNode]] = []
    for shard in range(num_shards):
        chain = stores[shard * chain_length : (shard + 1) * chain_length]
        build_chain(chain)
        chains.append(chain)
        heads.append(ShardAddress(ip=chain[0].ip, udp_port=STORE_UDP_PORT))
    shard_map = ShardMap(heads)

    deployment = Deployment(
        sim=sim, bed=bed, stores=stores, shard_map=shard_map, chains=chains
    )
    return _attach_apps(deployment, app_factory, config)


def deploy_netchain(
    sim: Simulator,
    app_factory: AppFactory,
    config: Optional[RedPlaneConfig] = None,
    allocator: Optional[StateAllocator] = None,
    link_loss: float = 0.0,
    link_reorder: float = 0.0,
    store_size: int = 1024,
) -> Deployment:
    """Deploy with a NetChain-style *in-switch* store instead of servers.

    ``tor1`` becomes a programmable switch running
    :class:`~repro.statestore.netchain.NetChainStoreBlock`: the single
    shard's records live in its register arrays and every store request
    is answered from the pipeline — roughly half the server path's RTT,
    at the price of losing all state if that switch crashes (the
    fault-tolerance tradeoff of RedPlane §8 / the NetChain comparison).

    The ToR is addressed at its otherwise-unused in-rack IP, so no route
    changes are needed: the aggregation layer already sends the rack
    prefix down to it, and replies to the requesting switch's loopback
    ride the normal up-routes. The store servers of the testbed are
    built but left idle (``deployment.stores`` is empty).
    """
    config = config or RedPlaneConfig()

    def make_agg(sim_: Simulator, name: str, loopback_ip: int) -> SwitchASIC:
        return SwitchASIC(sim_, name, loopback_ip)

    def make_tor(sim_: Simulator, name: str, ip: int) -> L3Switch:
        if name == "tor1":
            return SwitchASIC(sim_, name, ip)
        return L3Switch(sim_, name)

    bed = build_testbed(
        sim,
        agg_factory=make_agg,
        tor_factory=make_tor,
        link_loss=link_loss,
        link_reorder=link_reorder,
    )
    tor = bed.tors[0]
    assert isinstance(tor, SwitchASIC)
    backend = NetChainBackend(label=f"{tor.name}.netchain", size=store_size)
    block = attach_netchain_store(
        tor, backend=backend, lease_period_us=config.lease_period_us,
        allocator=allocator,
    )
    shard_map = ShardMap(
        [ShardAddress(ip=tor.ip, udp_port=NETCHAIN_UDP_PORT)]
    )

    deployment = Deployment(
        sim=sim, bed=bed, stores=[], shard_map=shard_map, netchain=block
    )
    return _attach_apps(deployment, app_factory, config)
