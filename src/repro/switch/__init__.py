"""Programmable-switch substrate: a Tofino-like data plane model.

Provides the abstractions the paper's P4 prototype is written against:
match-action pipelines, register arrays (one access per array per packet),
egress mirroring with truncation, a hardware packet generator, a slow
control-plane channel, and static resource accounting.
"""

from repro.switch.asic import SwitchASIC
from repro.switch.control_plane import SwitchControlPlane
from repro.switch.mirror import MirrorSession
from repro.switch.pipeline import (
    ControlBlock,
    Pipeline,
    PipelineContext,
    RegisterAccessError,
    Verdict,
)
from repro.switch.pktgen import PacketGenerator
from repro.switch.registers import PairedRegisterArray, RegisterArray
from repro.switch.resources import CAPACITY, ResourceModel, TABLE2_ROWS

__all__ = [
    "SwitchASIC",
    "SwitchControlPlane",
    "MirrorSession",
    "ControlBlock",
    "Pipeline",
    "PipelineContext",
    "RegisterAccessError",
    "Verdict",
    "PacketGenerator",
    "RegisterArray",
    "PairedRegisterArray",
    "ResourceModel",
    "CAPACITY",
    "TABLE2_ROWS",
]
