"""Per-shard capture: origins, the sidecar log, RNG guard.

The merge layer (:mod:`repro.shard.merge`) reassembles per-shard runs
into the exact byte stream the single-process reference produces. That
needs two things the normal run does not keep:

* **origins** — every root event (scheduled outside any event) gets a
  monotonically increasing *rank*; children inherit it. Setup code runs
  in lockstep on every shard, and ranks advance even for flow
  injections a shard skips, so rank N names the same root everywhere.
* **the log** — one ``(ts, rank, idx, kind, payload)`` entry per thing
  whose order matters, ``idx`` counting the entries of its rank:
  ``(ts, rank, idx)`` is a total order every shard agrees on. The four
  kinds are a uid *birth* (packet-span uids are allocated in execution
  order, so a shard's uid sequence is a subsequence of the reference's
  and ``(rank, idx)`` names a birth on every replica), a trace
  *record*, a histogram *observation* (reservoir decimation is
  order-dependent, so summaries are rebuilt by replay, not by combining
  per-shard reservoirs) and a *gauge* op (running peaks couple flows
  across shards).

The recorder also replaces the simulator RNG with a draw-counting
subclass: a campaign whose shards draw randomness *at all* would
diverge (each shard sees a different draw sequence), so identity-mode
runs assert zero draws and anything else is reported honestly.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.shard.assign import find_packet, shard_of
from repro.telemetry.metrics import Gauge, Histogram
from repro.telemetry.trace import TraceRecord

#: Rank used for entries logged outside any event (driver code between
#: ``run()`` calls). Driver code runs in lockstep on every shard, so
#: these are shared entries like any shared-rank emission.
DRIVER_RANK = -1

#: Log entry kinds and their payloads (lists, so an entry reads the same
#: whether it reached the merge in-process or through a JSON frame).
K_BIRTH = "birth"  # None; the n-th birth of a run is its local uid n
K_RECORD = "record"  # [type, fields]
K_OBSERVATION = "observation"  # [describe, value, max_samples]
K_GAUGE_OP = "gauge_op"  # [describe, op, amount]


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts every underlying draw.

    All public drawing methods funnel through ``random()`` or
    ``getrandbits()``; counting those two catches every draw without
    changing any returned value.
    """

    def __init__(self, seed: Any, recorder: "ShardRecorder") -> None:
        self._recorder = recorder
        super().__init__(seed)

    def random(self) -> float:
        self._recorder.rng_draws += 1
        return super().random()

    def getrandbits(self, k: int) -> int:
        self._recorder.rng_draws += 1
        return super().getrandbits(k)


class ShardRecorder:
    """Shard-mode sidecar state for one simulator.

    Parameters
    ----------
    shard_index, num_shards:
        This worker's slot. ``num_shards == 1`` with ``ghost=False``
        admits everything (useful for a recorded reference run).
    key_fields:
        The plan's partition-key fields (packet-extractable; see
        :func:`repro.shard.plan.shardability`).
    pinned:
        Plan not flow-partitionable: every flow belongs to shard 0.
    ghost:
        Admit *no* flows. A ghost run executes exactly the shared
        (non-flow) events every shard replicates; the merge subtracts
        its metrics ``N-1`` times to undo that replication.
    capture_records:
        Keep the log for byte-identity merging. Off for throughput
        benches, where only counts and metrics are needed.
    """

    def __init__(
        self,
        shard_index: int,
        num_shards: int,
        key_fields: Sequence[str],
        pinned: bool = False,
        ghost: bool = False,
        capture_records: bool = True,
    ) -> None:
        if not 0 <= shard_index < max(num_shards, 1):
            raise ValueError(
                f"shard_index {shard_index} out of range for "
                f"{num_shards} shard(s)"
            )
        self.shard_index = shard_index
        self.num_shards = num_shards
        self.key_fields = list(key_fields)
        self.pinned = pinned
        self.ghost = ghost
        self.capture_records = capture_records
        self.sim: Any = None
        self.rng_draws = 0
        self.flows_injected = 0
        self.flows_skipped = 0
        self._next_rank = 0
        #: rank -> "flow" ranks (injection roots); absent means shared.
        self.flow_ranks: Set[int] = set()
        self.owned_flow_ranks: Set[int] = set()
        #: ``(ts, rank, idx, kind, payload)`` in execution order.
        self.log: List[Tuple[float, int, int, str, Any]] = []
        self._rank_counts: Dict[int, int] = {}

    # -- wiring ---------------------------------------------------------------

    def attach(self, sim: Any, seed: int) -> None:
        """Hook the recorder into a freshly constructed simulator.

        Must run before any event is scheduled or any randomness drawn;
        the RNG is re-seeded with the simulator's own seed so the draw
        sequence is unchanged, merely counted.
        """
        if sim.events_executed or sim.pending_events:
            raise RuntimeError("recorder must attach to a fresh simulator")
        self.sim = sim
        sim.shard_ctx = self
        sim.rng = _CountingRandom(seed, self)
        if self.capture_records:
            sim.tracer.on_emit = self._on_trace_emit
            sim.metrics.on_create = self._on_instrument
            for inst in sim.metrics.instruments():
                self._on_instrument(inst)

    # -- simulator hooks -------------------------------------------------------

    def root_origin(self, fn: Any, args: Tuple) -> Tuple[int, bool]:
        """Allocate the next root rank; decide admission.

        Called by ``Simulator.schedule_at`` for events scheduled outside
        any event. Roots carrying a :class:`~repro.net.packet.Packet`
        are flow injections and are admitted only on the owner shard;
        every other root is shared and always admitted. Ranks advance
        either way, keeping all shards' numbering aligned.
        """
        rank = self._next_rank
        self._next_rank += 1
        pkt = find_packet(args)
        if pkt is None:
            return rank, True
        # The rank sets exist for the merge; capture-off (bench) runs
        # skip them so a 10M-flow population costs counters, not sets.
        if self.capture_records:
            self.flow_ranks.add(rank)
        if self.ghost:
            self.flows_skipped += 1
            return rank, False
        owner = 0 if self.pinned else shard_of(
            pkt, self.key_fields, self.num_shards
        )
        if owner == self.shard_index:
            self.flows_injected += 1
            if self.capture_records:
                self.owned_flow_ranks.add(rank)
            return rank, True
        self.flows_skipped += 1
        return rank, False

    def _log(self, ts: float, kind: str, payload: Any) -> None:
        origin = self.sim._origin
        rank = DRIVER_RANK if origin is None else origin
        idx = self._rank_counts.get(rank, 0)
        self._rank_counts[rank] = idx + 1
        self.log.append((ts, rank, idx, kind, payload))

    def note_uid(self, uid: int) -> None:
        if self.capture_records:
            self._log(self.sim.now, K_BIRTH, None)

    def _on_trace_emit(self, record: TraceRecord) -> None:
        self._log(record.ts, K_RECORD, [record.type, record.fields])

    def _on_instrument(self, inst: Any) -> None:
        if isinstance(inst, Histogram):
            inst.on_observe = self._on_observe
        elif isinstance(inst, Gauge):
            inst.on_change = self._on_gauge_change

    def _on_observe(self, hist: Histogram, value: float) -> None:
        self._log(self.sim.now, K_OBSERVATION,
                  [hist.describe(), value, hist.max_samples])

    def _on_gauge_change(self, gauge: Gauge, op: str, amount: float) -> None:
        # ``set_max`` amounts are *local* absolutes (the shard's own
        # running level), meaningless across shards; the merge derives
        # peaks by replaying the source gauge's add/set stream instead.
        if op != "set_max":
            self._log(self.sim.now, K_GAUGE_OP,
                      [gauge.describe(), op, float(amount)])

    # -- export ---------------------------------------------------------------

    def result(self) -> Dict[str, Any]:
        """Plain-data shard result, JSON-serializable for worker frames."""
        sim = self.sim
        return {
            "shard": self.shard_index,
            "num_shards": self.num_shards,
            "ghost": self.ghost,
            "pinned": self.pinned,
            "capture": self.capture_records,
            "events_executed": sim.events_executed,
            "records_emitted": sim.tracer.records_emitted,
            "rng_draws": self.rng_draws,
            "flows_injected": self.flows_injected,
            "flows_skipped": self.flows_skipped,
            "rank_count": self._next_rank,
            "flow_ranks": sorted(self.flow_ranks),
            "owned_flow_ranks": sorted(self.owned_flow_ranks),
            "log": [list(entry) for entry in self.log],
            "metrics": sim.metrics.snapshot(),
            "final_now": sim.now,
        }
