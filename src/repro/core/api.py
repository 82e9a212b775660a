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

from repro.switch.asic import SwitchASIC
from repro.core.app import InSwitchApp
from repro.core.engine import RedPlaneConfig, RedPlaneEngine
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
