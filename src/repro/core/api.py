"""Developer-facing RedPlane API (Fig 3 / Appendix B).

Where the P4 prototype has developers ``#include "redplane_core.p4"`` and
instantiate ``RedPlaneIngress``/``RedPlaneEgress`` around their app, here
they call :func:`attach_redplane` on a switch with their
:class:`~repro.core.app.InSwitchApp`; :func:`repro.deploy.deploy` does that
for every aggregation switch and starts snapshot replication for apps
that declare ``snapshot_structures()``.
"""

from __future__ import annotations

from typing import Optional

from repro.net import constants
from repro.switch.asic import SwitchASIC
from repro.core.app import InSwitchApp
from repro.core.engine import RedPlaneConfig, RedPlaneEngine
from repro.statestore.netchain import NetChainBackend, NetChainStoreBlock
from repro.statestore.server import StateAllocator
from repro.statestore.sharding import ShardMap


def attach_redplane(
    switch: SwitchASIC,
    app: InSwitchApp,
    shard_map: ShardMap,
    config: Optional[RedPlaneConfig] = None,
) -> RedPlaneEngine:
    """Make ``app`` fault tolerant on ``switch``.

    Appends the RedPlane protocol engine (wrapping the app) to the
    switch's pipeline and accounts its ASIC resources. Returns the engine
    for introspection.
    """
    engine = RedPlaneEngine(switch, app, shard_map, config)
    switch.add_block(engine)
    switch.resources.register(app.resource_usage())
    return engine


def attach_netchain_store(
    switch: SwitchASIC,
    backend: Optional[NetChainBackend] = None,
    lease_period_us: float = constants.LEASE_PERIOD_US,
    allocator: Optional[StateAllocator] = None,
) -> NetChainStoreBlock:
    """Serve a shard's state from ``switch`` itself, NetChain-style.

    Instead of a server-based :class:`~repro.statestore.server.StateStoreNode`,
    the shard's records live in register arrays on ``switch`` and every
    request is answered from the pipeline in sub-RTT time — the design
    point RedPlane §8 contrasts against: faster, but the state is SRAM
    and vanishes on a switch crash (``recover()`` finds nothing).

    Appends the store block to the switch pipeline and accounts its SRAM
    in the switch's resource ledger. Returns the block for introspection.
    """
    block = NetChainStoreBlock(
        switch, backend=backend, lease_period_us=lease_period_us, allocator=allocator
    )
    switch.add_block(block)
    return block
