"""Enforcing the inconsistency bound epsilon (§5.5).

Bounded-inconsistency mode guarantees that the system recovers to a state
from within the last ``epsilon`` seconds *provided snapshots keep
succeeding*. The paper closes the loop: RedPlane "tracks the time since
the last successful replication; if the time bound is exceeded, an
application-specific action may be taken (e.g., dropping further packets
or treating the switch as failed)".

:class:`EpsilonGuard` implements that watchdog on the switch: it polls the
snapshot replicator's progress and, when the bound is exceeded (store
unreachable, persistent loss), invokes a policy — drop the app's further
packets, mark the switch failed, or call a user hook.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.core.engine import _PROTOCOL_PORTS
from repro.core.snapshot import SnapshotReplicator
from repro.net.packet import UDPHeader
from repro.switch.pipeline import ControlBlock, PipelineContext


class EpsilonPolicy(enum.Enum):
    """What to do when the inconsistency bound is exceeded."""

    #: Drop application packets until replication catches up (no further
    #: un-replicated state accumulates).
    DROP_PACKETS = "drop"
    #: Treat the switch as failed: fail-stop it so routing moves traffic
    #: to a replica whose state store view is current.
    FAIL_SWITCH = "fail"
    #: Only invoke the user callback.
    NOTIFY = "notify"


class EpsilonGuard(ControlBlock):
    """Watchdog over a snapshot replicator's staleness.

    Installed ahead of the application in the pipeline. While the time
    since the last *complete, acknowledged* snapshot stays within
    ``epsilon_us`` the guard is transparent; beyond it the configured
    policy applies until replication recovers.
    """

    name = "epsilon-guard"

    def __init__(
        self,
        replicator: SnapshotReplicator,
        epsilon_us: float,
        policy: EpsilonPolicy = EpsilonPolicy.DROP_PACKETS,
        on_violation: Optional[Callable[[], None]] = None,
    ) -> None:
        if epsilon_us <= 0:
            raise ValueError("epsilon must be positive")
        self.replicator = replicator
        self.epsilon_us = epsilon_us
        self.policy = policy
        self.on_violation = on_violation
        #: Watchdog poll period: four checks per bound.
        self.check_interval_us = epsilon_us / 4
        self.switch = replicator.switch
        self.violated = False
        self.violations = 0
        self.packets_dropped = 0
        self._started = False

    # -- watchdog timer -------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        # Grace: the first snapshot needs one period to complete.
        self.switch.sim.schedule(self.epsilon_us, self._check)

    def _check(self) -> None:
        if not self._started or self.switch.failed:
            return
        stale = self.replicator.staleness_us()
        if stale > self.epsilon_us and not self.violated:
            self.violated = True
            self.violations += 1
            if self.on_violation is not None:
                self.on_violation()
            if self.policy is EpsilonPolicy.FAIL_SWITCH:
                # Self-fail: indistinguishable from a crash, so the normal
                # failover machinery (reroute + lease migration) kicks in.
                self.switch.fail()
                return
        elif stale <= self.epsilon_us and self.violated:
            self.violated = False
        self.switch.sim.schedule(self.check_interval_us, self._check)

    def stop(self) -> None:
        self._started = False

    # -- pipeline block ----------------------------------------------------------

    def process(self, ctx: PipelineContext, switch) -> bool:
        if (
            self.violated
            and self.policy is EpsilonPolicy.DROP_PACKETS
            and ctx.pkt.meta.get("snapshot_read") is None
        ):
            # Keep protocol/snapshot machinery (chain replication too)
            # flowing; only app traffic stops accumulating un-replicated
            # state.
            l4 = ctx.pkt.l4
            if isinstance(l4, UDPHeader) and (
                l4.dport in _PROTOCOL_PORTS or l4.sport in _PROTOCOL_PORTS
            ):
                return True
            self.packets_dropped += 1
            ctx.drop()
            return False
        return True
