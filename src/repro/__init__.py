"""RedPlane reproduction: fault-tolerant stateful in-switch applications.

A from-scratch Python reproduction of *RedPlane: Enabling Fault-Tolerant
Stateful In-Switch Applications* (SIGCOMM 2021) on a discrete-event
switch/network simulator. See DESIGN.md for the system inventory and
EXPERIMENTS.md for the paper-vs-measured results.

Quick start::

    from repro import Simulator, deploy
    from repro.apps import SyncCounterApp

    sim = Simulator(seed=7)
    dep = deploy(sim, SyncCounterApp)
    ...

The public surface is re-exported here; subpackages:

* :mod:`repro.net` — discrete-event simulator, packets, links, topology
* :mod:`repro.switch` — programmable switch ASIC model
* :mod:`repro.statestore` — chain-replicated external state store
* :mod:`repro.core` — the RedPlane protocol (the paper's contribution)
* :mod:`repro.apps` — the paper's in-switch applications
* :mod:`repro.baselines` — fault-tolerance baselines of §2.2 and Fig 8
* :mod:`repro.model` — protocol model checking and linearizability checks
* :mod:`repro.workloads` — traffic and TCP workload generation
* :mod:`repro.analysis` — statistics and the fluid throughput model
"""

from repro.net.simulator import Simulator
from repro.net.packet import FlowKey, Packet, ip_aton, ip_ntoa
from repro.net.topology import Testbed, build_testbed
from repro.switch.asic import SwitchASIC
from repro.core import (
    AppVerdict,
    InSwitchApp,
    RedPlaneConfig,
    RedPlaneEngine,
    RedPlaneMode,
    StateSpec,
    attach_redplane,
)
from repro.statestore import ShardAddress, ShardMap, StateStoreNode, build_chain
from repro.deploy import Deployment, deploy

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "FlowKey",
    "Packet",
    "ip_aton",
    "ip_ntoa",
    "Testbed",
    "build_testbed",
    "SwitchASIC",
    "AppVerdict",
    "InSwitchApp",
    "RedPlaneConfig",
    "RedPlaneEngine",
    "RedPlaneMode",
    "StateSpec",
    "attach_redplane",
    "ShardAddress",
    "ShardMap",
    "StateStoreNode",
    "build_chain",
    "Deployment",
    "deploy",
    "__version__",
]
