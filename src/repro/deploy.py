"""One-call deployment of a RedPlane testbed.

Wires together the Appendix-D topology, programmable aggregation switches,
state-store servers (optionally chain-replicated), the shard map, and a
RedPlane-enabled application on each aggregation switch — the setup every
experiment in §7 starts from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.net.simulator import Simulator
from repro.net.topology import Testbed, build_testbed
from repro.switch.asic import SwitchASIC
from repro.core.app import InSwitchApp
from repro.core.engine import RedPlaneConfig, RedPlaneEngine, RedPlaneMode
from repro.core.api import attach_redplane
from repro.core.protocol import STORE_UDP_PORT
from repro.core.snapshot import SnapshotReplicator
from repro.statestore.backend import StateStoreBackend
from repro.statestore.server import StateStoreNode, build_chain
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
    #: The running snapshot replicator of each agg switch whose app
    #: declares ``snapshot_structures()``; empty for linearizable apps.
    replicators: Dict[str, SnapshotReplicator] = field(default_factory=dict)

    @property
    def switches(self) -> List[SwitchASIC]:
        return self.bed.aggs  # type: ignore[return-value]


def deploy(
    sim: Simulator,
    app_factory: AppFactory,
    num_shards: int = 1,
    chain_length: int = 3,
    config: Optional[RedPlaneConfig] = None,
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

    The first app provisions the testbed for its service
    (:meth:`InSwitchApp.provision`, once), and every agg switch whose app
    declares ``snapshot_structures()`` gets a running
    :class:`SnapshotReplicator` (``Deployment.replicators``).
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
            backend=backend,
        )

    bed = build_testbed(sim, agg_factory=make_agg, store_factory=make_store)
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
    for agg in bed.aggs:
        app = app_factory()
        engine = attach_redplane(
            agg, app, shard_map, config  # type: ignore[arg-type]
        )
        deployment.apps[agg.name] = app
        deployment.engines[agg.name] = engine
    deployment.apps[bed.aggs[0].name].provision(bed, stores)
    # The replicators go in a second pass, after every engine is attached,
    # so the packet generators' first events are scheduled after all engine
    # construction. Each replicator sits at pipeline index 0, ahead of its
    # engine, so it claims the generator's snapshot-read packets.
    for name, engine in deployment.engines.items():
        if engine.mode is not RedPlaneMode.LINEARIZABLE:
            replicator = SnapshotReplicator(engine)
            engine.switch.pipeline.blocks.insert(0, replicator)
            replicator.start()
            deployment.replicators[name] = replicator
    return deployment

