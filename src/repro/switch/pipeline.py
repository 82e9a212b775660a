"""Match-action pipeline abstractions.

The model follows the Tofino architecture the paper targets (§2, "Primer on
programmable switches"): a packet traverses an ingress pipeline and an
egress pipeline, each a sequence of *control blocks*; state lives in
stateful objects (register arrays, tables) that the blocks access under
hardware constraints enforced here — most importantly, **one access per
register array per packet** (§5.4: "the switch is architected, and the P4
language is designed, to allow access to a single entry per register array
per packet").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, TYPE_CHECKING

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.switch.asic import SwitchASIC


class Verdict(enum.Enum):
    """What the pipeline decided to do with the original packet."""

    #: Continue normal L3 forwarding after the pipeline.
    FORWARD = "forward"
    #: Drop the packet.
    DROP = "drop"
    #: The packet was consumed/transformed; only ``emitted`` packets leave.
    CONSUMED = "consumed"
    #: Send to the switch CPU over the PCIe channel.
    PUNT = "punt"


@dataclass(slots=True)
class PipelineContext:
    """Per-packet execution context threading through the pipeline.

    Tracks the hardware access constraint: a register array may be touched
    at most once while processing one packet. ``slots=True`` because one
    is allocated per packet per switch traversal.
    """

    pkt: Packet
    now: float
    verdict: Verdict = Verdict.FORWARD
    #: The control block currently processing this packet (set by
    #: :meth:`Pipeline.run`); lets access-constraint errors cite the
    #: owning block/app the way ``repro.verify`` diagnostics do.
    block_obj: Optional[object] = None
    #: Additional packets generated while processing (replication requests,
    #: mirrored copies already materialized, responses); each is routed
    #: independently after the pipeline completes.
    emitted: List[Packet] = field(default_factory=list)
    #: Scratch metadata (the P4 ``metadata`` struct equivalent).
    meta: Dict[str, Any] = field(default_factory=dict)
    _accessed_arrays: Set[int] = field(default_factory=set)

    def note_register_access(self, array: object) -> None:
        key = id(array)
        if key in self._accessed_arrays:
            uid = self.pkt.meta.get("uid") if self.pkt is not None else None
            site = access_site(self.block_obj, uid)
            raise RegisterAccessError(
                access_violation_message(
                    getattr(array, "name", repr(array)), site
                )
            )
        self._accessed_arrays.add(key)

    # -- verdict helpers ------------------------------------------------------

    def drop(self) -> None:
        self.verdict = Verdict.DROP

    def consume(self) -> None:
        self.verdict = Verdict.CONSUMED

    def punt(self) -> None:
        self.verdict = Verdict.PUNT

    def emit(self, pkt: Packet) -> None:
        self.emitted.append(pkt)


class RegisterAccessError(RuntimeError):
    """A P4 program violated the one-access-per-array-per-packet rule."""


def describe_block(block: object) -> str:
    """Logical name of a control block, e.g. ``redplane(nat44)``.

    Blocks that wrap an application (the RedPlane engine) cite both so
    the report reader can tell which app's pipeline misbehaved.
    """
    if block is None:
        return "?"
    name = getattr(block, "name", None) or type(block).__name__
    app = getattr(block, "app", None)
    app_name = getattr(app, "name", None)
    return f"{name}({app_name})" if app_name else str(name)


def access_site(block: object, pkt_uid: object = None) -> str:
    """The shared site format cited by runtime errors and RP1xx
    diagnostics alike: ``block=redplane(nat44) pkt=17``."""
    site = f"block={describe_block(block)}"
    if pkt_uid is not None:
        site += f" pkt={pkt_uid}"
    return site


def access_violation_message(array_name: str, site: str) -> str:
    """One wording for the §5.4 single-access violation, shared by the
    runtime check above and the static RP101 rule in ``repro.verify``."""
    return (
        f"register array {array_name!r} accessed twice for one packet; "
        f"Tofino allows a single access per array per packet [{site}]"
    )


class ControlBlock:
    """Base class for pipeline stages (the P4 ``control`` equivalent).

    Blocks are applied in order; a block may stop processing of later
    blocks by returning ``False`` from :meth:`process` (e.g. when the
    packet was consumed by the protocol engine).
    """

    name = "block"

    def process(self, ctx: PipelineContext, switch: "SwitchASIC") -> bool:
        raise NotImplementedError

    def resource_usage(self) -> Dict[str, float]:
        """Absolute resource units consumed; see :mod:`repro.switch.resources`."""
        return {}


class Pipeline:
    """An ordered list of control blocks applied to each packet."""

    def __init__(self) -> None:
        self.blocks: List[ControlBlock] = []
        #: Composition version: bumped on every structural change so the
        #: fast path can cheaply detect that compiled per-switch state
        #: (which encodes this block sequence) is stale.
        self.version = 0

    def append(self, block: ControlBlock) -> None:
        self.blocks.append(block)
        self.version += 1

    def run(self, ctx: PipelineContext, switch: "SwitchASIC") -> None:
        for block in self.blocks:
            ctx.block_obj = block
            keep_going = block.process(ctx, switch)
            if keep_going is False:
                break
        ctx.block_obj = None
