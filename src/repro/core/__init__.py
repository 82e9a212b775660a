"""RedPlane core: the fault-tolerant state store protocol for switches."""

from repro.core.api import attach_redplane
from repro.core.app import AppVerdict, InSwitchApp
from repro.core.epsilon import EpsilonGuard, EpsilonPolicy
from repro.core.engine import (
    HistoryEvent,
    RedPlaneConfig,
    RedPlaneEngine,
    RedPlaneMode,
)
from repro.core.flowstate import FlowStateView, StateSpec
from repro.core.protocol import (
    MessageType,
    RedPlaneMessage,
    STORE_UDP_PORT,
    SWITCH_UDP_PORT,
    make_protocol_packet,
    pack_packets,
    parse_protocol_packet,
    unpack_packets,
)
from repro.core.snapshot import LazySnapshotArray, SnapshotReplicator

__all__ = [
    "attach_redplane",
    "AppVerdict",
    "InSwitchApp",
    "EpsilonGuard",
    "EpsilonPolicy",
    "HistoryEvent",
    "RedPlaneConfig",
    "RedPlaneEngine",
    "RedPlaneMode",
    "FlowStateView",
    "StateSpec",
    "MessageType",
    "RedPlaneMessage",
    "STORE_UDP_PORT",
    "SWITCH_UDP_PORT",
    "make_protocol_packet",
    "pack_packets",
    "parse_protocol_packet",
    "unpack_packets",
    "LazySnapshotArray",
    "SnapshotReplicator",
]
