"""State-store failure handling: chain reconfiguration + switch updates.

The paper delegates store fault tolerance to chain replication with a
group of three (§5.1.1) and does not evaluate store failures; production
chain replication needs a coordinator that detects dead nodes, rewires the
chain, and tells clients where the new head is. This module supplies that
piece so the reproduction is a complete system:

* :class:`StoreFailoverCoordinator` heartbeats every store node; on a
  missed-heartbeat threshold it splices the node out of its chain
  (:func:`reconfigure_chain`) and pushes the new head address to every
  RedPlane switch through the switch control plane (a table update — the
  slow path, which is fine: store failures are rare and the chain keeps
  serving during the update).

The shard map object is shared by reference with the switches' engines,
so a head change is one in-place update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.simulator import Simulator
from repro.core.protocol import STORE_UDP_PORT
from repro.statestore.server import StateStoreNode, reconfigure_chain
from repro.statestore.sharding import ShardAddress, ShardMap
from repro.telemetry import trace as tt


@dataclass
class _ShardChain:
    nodes: List[StateStoreNode]
    alive: List[StateStoreNode] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.alive = list(self.nodes)


class StoreFailoverCoordinator:
    """Detects store-node failures and repairs chains + shard maps."""

    def __init__(
        self,
        sim: Simulator,
        shard_map: ShardMap,
        chains: List[List[StateStoreNode]],
        switches: Optional[List] = None,
        heartbeat_interval_us: float = 100_000.0,
        missed_threshold: int = 3,
    ) -> None:
        if shard_map.num_shards != len(chains):
            raise ValueError("one chain per shard required")
        self.sim = sim
        self.shard_map = shard_map
        self.chains = [_ShardChain(nodes=list(chain)) for chain in chains]
        #: Switches whose control planes get shard-map update operations.
        self.switches = list(switches or [])
        self.heartbeat_interval_us = heartbeat_interval_us
        self.missed_threshold = missed_threshold
        self._missed: Dict[str, int] = {}
        self._c_reconfigurations = sim.metrics.counter(
            "store.chain_reconfigurations"
        )
        self.running = False

    @property
    def reconfigurations(self) -> int:
        return int(self._c_reconfigurations.value)

    def start(self) -> None:
        self.running = True
        self.sim.schedule(self.heartbeat_interval_us, self._tick)

    def stop(self) -> None:
        self.running = False

    # -- heartbeating ---------------------------------------------------------

    def _tick(self) -> None:
        if not self.running:
            return
        for shard_index, chain in enumerate(self.chains):
            for node in list(chain.alive):
                # Heartbeat: in the prototype this is an RPC; the model
                # reads liveness directly with the same detection latency
                # (interval x threshold).
                if node.failed:
                    missed = self._missed.get(node.name, 0) + 1
                    self._missed[node.name] = missed
                    if missed >= self.missed_threshold:
                        self._evict(shard_index, chain, node)
                else:
                    self._missed[node.name] = 0
        self.sim.schedule(self.heartbeat_interval_us, self._tick)

    def _evict(self, shard_index: int, chain: _ShardChain,
               node: StateStoreNode) -> None:
        chain.alive = [n for n in chain.alive if n is not node]
        if not any(not n.failed for n in chain.alive):
            raise RuntimeError(
                f"shard {shard_index}: every chain replica failed"
            )
        old_head_ip = self.shard_map.addresses()[shard_index].ip
        # Rewire the survivors. Chain updates the evicted node swallowed
        # mid-propagation are healed by the switches' retransmissions.
        chain.alive = reconfigure_chain(chain.alive)
        new_head = chain.alive[0]
        self._c_reconfigurations.inc()
        self.sim.tracer.emit(
            tt.FAILOVER,
            shard=shard_index,
            evicted=node.name,
            new_head=new_head.name,
            survivors=len(chain.alive),
        )
        if new_head.ip != old_head_ip:
            address = ShardAddress(ip=new_head.ip, udp_port=STORE_UDP_PORT)
            self.shard_map.set_head(shard_index, address)
            # The shard map is shared by reference with the engines, but a
            # real deployment installs the new head through each switch's
            # control plane — model that latency.
            for switch in self.switches:
                switch.control_plane.submit(lambda: None)

    # -- introspection ----------------------------------------------------------

    def detection_latency_us(self) -> float:
        """Worst-case failure-detection time of the heartbeat scheme."""
        return self.heartbeat_interval_us * self.missed_threshold

    def alive_chain(self, shard_index: int) -> List[StateStoreNode]:
        return list(self.chains[shard_index].alive)
