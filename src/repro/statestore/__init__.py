"""External state store: pluggable backends behind a chain-replicated RPC layer.

The package splits into three layers (docs/STATESTORE.md):

* :mod:`repro.statestore.server` — the transport/chain layer
  (:class:`StateStoreNode`): RPC handling, leases, sequencing, chain
  replication. Storage-agnostic.
* :mod:`repro.statestore.backend` — the :class:`StateStoreBackend`
  protocol plus the in-memory reference backend; :mod:`~.wal` adds the
  persistent write-ahead-log backend, :mod:`~.netchain` the NetChain-style
  in-switch backend.
* :mod:`repro.statestore.codec` — the wire/disk record formats shared by
  chain replication and the WAL.
"""

from repro.statestore.server import (
    AUX_FRESH_FLOW,
    AUX_MIGRATED_STATE,
    CHAIN_UDP_PORT,
    StateStoreNode,
    build_chain,
    reconfigure_chain,
)
from repro.statestore.backend import (
    FlowRecord,
    InMemoryBackend,
    StateStoreBackend,
)
from repro.statestore.codec import (
    pack_chain_update,
    pack_record,
    unpack_chain_update,
    unpack_record,
)
from repro.statestore.wal import WALBackend
from repro.statestore.netchain import (
    NETCHAIN_UDP_PORT,
    NetChainBackend,
    NetChainStoreBlock,
)
from repro.statestore.failover import StoreFailoverCoordinator
from repro.statestore.sharding import ShardAddress, ShardMap

__all__ = [
    "StateStoreNode",
    "FlowRecord",
    "StateStoreBackend",
    "InMemoryBackend",
    "WALBackend",
    "NetChainBackend",
    "NetChainStoreBlock",
    "build_chain",
    "reconfigure_chain",
    "ShardAddress",
    "ShardMap",
    "StoreFailoverCoordinator",
    "CHAIN_UDP_PORT",
    "NETCHAIN_UDP_PORT",
    "AUX_FRESH_FLOW",
    "AUX_MIGRATED_STATE",
    "pack_chain_update",
    "unpack_chain_update",
    "pack_record",
    "unpack_record",
]
