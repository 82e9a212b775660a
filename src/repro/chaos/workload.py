"""The chaos engine's reference workload: an echo counter under load.

Every campaign drives the same application — a sync-mode counter that
writes each packet's observed count into the payload — because it is the
strongest oracle the checker has (§4.2): each delivered packet exposes
the exact state value it saw, so the per-flow history can be checked for
linearizability against the counter's sequential specification, and the
sorted delivered values immediately reveal duplication or regression.

The workload mirrors ``tests/test_integration.py``'s echo-counter
harness but packages it as a reusable object that also tracks delivery
times, which the runner turns into recovery-latency percentiles.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.apps.counter import SyncCounterApp
from repro.core.app import AppVerdict
from repro.deploy import Deployment
from repro.model.linearizability import FlowHistory
from repro.net.packet import Packet


class EchoCounterApp(SyncCounterApp):
    """Sync counter that echoes the new count into the packet payload."""

    name = "chaos-echo-counter"

    def process(self, state, pkt, ctx, switch):
        count = state.increment("count")
        pkt.payload = struct.pack("!I", count)
        return AppVerdict.FORWARD


@dataclass
class CounterWorkload:
    """Sends a paced packet stream through the deployment and records
    what comes out the far end (value seen + delivery time)."""

    deployment: Deployment
    packets: int
    gap_us: float
    start_us: float = 0.0
    #: trace id -> (counter value observed, delivery time)
    outputs: Dict[int, Tuple[int, float]] = field(default_factory=dict)

    def start(self) -> None:
        dep = self.deployment
        sim = dep.sim
        source, sink = dep.bed.externals[0], dep.bed.servers[0]

        def on_receive(pkt: Packet) -> None:
            (value,) = struct.unpack_from("!I", pkt.payload, 0)
            self.outputs[pkt.ip.identification] = (value, sim.now)

        sink.default_handler = on_receive
        for i in range(self.packets):
            pkt = Packet.udp(source.ip, sink.ip, 5555, 7777)
            pkt.ip.identification = i
            sim.schedule_at(self.start_us + i * self.gap_us, source.send, pkt)

    # -- oracles -----------------------------------------------------------

    def history(self) -> FlowHistory:
        """Inputs from every switch's engine history, outputs from the sink.

        Raises ``ValueError`` if an engine was deployed without
        ``RedPlaneConfig(record_history=True)``: the history would have
        outputs and no inputs.
        """
        history = FlowHistory()
        for engine in self.deployment.engines.values():
            if not engine.config.record_history:
                raise ValueError(
                    f"engine {engine.switch.name} records no history: "
                    f"deploy with RedPlaneConfig(record_history=True)")
            for event in engine.history:
                history.add_input(event.trace_id, None, event.time)
        for trace_id, (value, time) in self.outputs.items():
            history.add_output(trace_id, value, time)
        return history

    def delivery_times(self) -> List[float]:
        return sorted(time for _v, time in self.outputs.values())

    def delivered_values(self) -> List[int]:
        return sorted(value for value, _t in self.outputs.values())

    @property
    def delivered(self) -> int:
        return len(self.outputs)
