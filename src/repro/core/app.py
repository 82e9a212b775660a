"""The developer-facing application interface.

A stateful in-switch application (Definition 1: a transition function
``(I, S) -> (O*, S')``) subclasses :class:`InSwitchApp` and implements
:meth:`process`. The RedPlane engine mediates every access to per-flow
state through a :class:`~repro.core.flowstate.FlowStateView`, which is how
it learns whether a packet's processing read or wrote state — the fact
that drives the replication protocol.

This mirrors the P4 API of Appendix B: the developer's control block is
sandwiched between ``RedPlaneIngress`` and ``RedPlaneEgress``; here the
sandwich is :class:`repro.core.engine.RedPlaneEngine` wrapping ``process``.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, TYPE_CHECKING

from repro.net.packet import FlowKey, Packet
from repro.core.flowstate import FlowStateView, StateSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.snapshot import LazySnapshotArray
    from repro.switch.asic import SwitchASIC
    from repro.switch.pipeline import PipelineContext


class AppVerdict(enum.Enum):
    """What the application wants done with the (possibly rewritten) packet."""

    FORWARD = "forward"
    DROP = "drop"


class InSwitchApp:
    """Base class for stateful in-switch applications."""

    #: Short identifier used in experiment output.
    name = "app"

    #: Per-flow state layout; replicated by RedPlane.
    state_spec: StateSpec = StateSpec.of()

    #: True if restoring this app's state on a switch requires a
    #: control-plane table installation (e.g. a NAT translation entry);
    #: adds slow-path latency to state initialization/migration (§5.1).
    requires_control_plane_install = False

    #: What :meth:`partition_key` reads from the packet — the fast-path
    #: flow cache keys compiled entries by exactly these inputs.
    #: ``"flow"``: headers only (5-tuple + VLAN); ``"packet"``: headers
    #: plus payload (apps that parse encapsulations or service requests
    #: out of the payload must declare this — verify rule RP141);
    #: ``None``: opt out of flow caching entirely (partition decisions
    #: that depend on mutable app state).
    partition_inputs: Optional[str] = "flow"

    #: Declared partition class for the sharded runner, one of
    #: ``"flow_local"`` / ``"flow_hash"`` / ``"global"`` — or ``None`` to
    #: accept what the partition analyzer (verify pass 5, RS4xx) infers.
    #: A declaration may only *relax* the inferred class (an app whose
    #: state two flows can touch declares ``"global"``); declaring a
    #: tighter class than inference proves is an RS402 error.
    shard_class: Optional[str] = None

    #: Mandatory for ``shard_class = "global"`` (RS403): why the state is
    #: genuinely cross-flow, recorded verbatim in the shard plan.
    shard_reason: Optional[str] = None

    def partition_key(self, pkt: Packet) -> Optional[FlowKey]:
        """The state-partition key for this packet.

        Return None for traffic the application does not process (it is
        forwarded untouched). The default partitions by the direction-
        independent IP 5-tuple so both directions of a connection share
        state; override for VLAN-, user-, or object-based partitioning.
        """
        if pkt.ip is None:
            return None
        return pkt.flow_key().canonical()

    def process(
        self,
        state: FlowStateView,
        pkt: Packet,
        ctx: "PipelineContext",
        switch: "SwitchASIC",
    ) -> AppVerdict:
        """Process one packet against its flow state.

        May rewrite packet headers in place and read/update ``state``. The
        engine replicates state changes before the packet (or anything
        derived from it) leaves the switch.
        """
        raise NotImplementedError

    def initial_state(self, key: FlowKey) -> Optional[list]:
        """Switch-local initial state for a brand-new flow.

        Return None (default) to use ``state_spec`` defaults. Ignored when
        the deployment configures a store-side allocator (global state such
        as a NAT port pool is owned by the store, §3).
        """
        return None

    def snapshot_structures(self) -> Dict[FlowKey, "LazySnapshotArray"]:
        """The app's bounded-inconsistency state (§4.4), by store key.

        This is the app's whole consistency declaration. Empty (the
        default): per-flow state is replicated synchronously and the app
        is linearizable. Non-empty: the app keeps its state in these
        lazy-snapshot arrays, the engine runs it in bounded-inconsistency
        mode, and ``deploy()`` replicates a snapshot of each array every
        ``RedPlaneConfig.snapshot_period_us``.
        """
        return {}

    def resource_usage(self) -> dict:
        """Baseline ASIC resources of the app itself (Table 2 context)."""
        return {}
