"""A microsecond-resolution discrete-event simulator.

The simulator is a classic event-heap design: callbacks are scheduled at
absolute simulated times and executed in order. Ties are broken by insertion
order so that runs are fully deterministic for a given seed.

Every component in the reproduction (links, switch ASICs, state-store
servers, TCP endpoints, the RedPlane protocol engine) is driven by this
loop. Nothing uses wall-clock time.

The simulator also roots the telemetry spine: it owns the run's
:class:`~repro.telemetry.metrics.MetricRegistry` (:attr:`Simulator.metrics`)
and :class:`~repro.telemetry.trace.Tracer` (:attr:`Simulator.tracer`),
which every component publishes through and every reader queries
(``sim.metrics.value(name)``, ``.total(name, **labels)``, ``.snapshot()``).

An event is one list, ``[time, seq, fn, args, origin]``: the queue entry
and the handle :meth:`Simulator.schedule_at` returns are the same object,
so scheduling allocates nothing else. Ordering is decided by C list
comparison on ``(time, seq)`` (``seq`` is unique, so ``fn`` is never
compared) and never calls back into Python. :meth:`Simulator.cancel`
sets an entry's ``fn`` to ``None``; the drain discards such a tombstone
when it reaches the head.

The queue is a binary heap plus a FIFO beside it. An event whose time is
at or after the FIFO's last entry is appended to the FIFO, which
therefore stays sorted by ``(time, seq)``; any other event is pushed on
the heap. Traffic sources schedule their whole input trace ahead, in time
order, before the first event runs, so the trace waits in the FIFO in
O(1) per event and the heap holds only what is in flight. The drain runs
whichever head is smaller, so execution order, tie order and
:attr:`Simulator.pending_events` are exactly those of a single heap.
"""

from __future__ import annotations

import functools
import gc
import itertools
import random
import warnings
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, List, Optional

from repro.telemetry import MetricRegistry, Tracer

#: A scheduled event, ``[time, seq, fn, args, origin]``; ``fn`` is
#: ``None`` once cancelled. ``origin`` is the root-event rank the event
#: descends from (shard mode only, ``None`` in ordinary runs): children
#: inherit it from the event being executed when they are scheduled,
#: which lets the shard merge layer order records from different shards
#: globally.
Entry = list


class Simulator:
    """Deterministic discrete-event simulator with a single time line.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned :class:`random.Random`. All stochastic
        behaviour (link impairments, workload generation) must draw
        from :attr:`rng` so that a run is reproducible from its seed.
    trace_ring:
        Capacity of the trace ring; ``None`` keeps every record, ``0``
        keeps none (the tracer still counts every emit and feeds its
        sinks, and builds no record when it has no sink: the shard
        runner's simulators, whose rings nobody could read).

    While events execute, CPython's cyclic garbage collector is paused
    (``gc.isenabled()`` is false inside every handler) and put back as it
    was found when the drain returns. That rests on a contract: executing
    events creates no reference cycles, so the collector has nothing to
    free and reference counting alone reclaims every packet, event and
    record (tests/test_gc_contract.py pins it). A handler that does build
    cycles keeps them until its drain returns.
    """

    def __init__(self, seed: int = 0,
                 trace_ring: Optional[int] = 65536) -> None:
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._heap: List[Entry] = []
        self._fifo: Deque[Entry] = deque()
        self._seq = itertools.count()
        self._events_executed = 0
        # Correlation ids for packet-lifecycle spans: allocation order is
        # event-execution order, so ids are deterministic per seed and
        # never touch the RNG or the event queue.
        self._uid_seq = itertools.count(1)
        #: The run's metric registry: every component publishes through it.
        self.metrics = MetricRegistry()
        #: The run's tracer; timestamps are this clock's simulated time.
        self.tracer = Tracer(clock=functools.partial(getattr, self, "now"),
                             maxlen=trace_ring)
        #: Per-run memo of flow-tag strings (``str(FlowKey)``) by raw
        #: 5-tuple, filled by :mod:`repro.net.links` and bounded by
        #: :data:`repro.net.constants.CACHE_CAP`.
        self.flow_tags: dict = {}
        #: The installed :class:`repro.fastpath.runtime.FastPath` (the
        #: optional ASIC flow cache), if any. The switch ASIC consults
        #: this; ``None`` means every packet runs the full pipeline.
        self.fastpath = None
        #: Optional observer called with the event's time after each
        #: executed event (:meth:`repro.observe.HeartbeatEmitter.tick` is
        #: the one producer). It is *called*, never scheduled, and must
        #: only read: no RNG draw, no ``schedule``, no metric — so an
        #: observed run is bit-identical to an unobserved one, apart from
        #: the ``health.detect`` records armed detectors trace
        #: (tests/test_observe.py enforces this).
        self.on_event: Optional[Callable[[float], None]] = None
        #: The attached :class:`repro.shard.recorder.ShardRecorder`, or
        #: ``None``. When set, root events (scheduled outside any event)
        #: are assigned monotonically increasing *ranks* and may be
        #: filtered (a shard only injects the flows it owns); children
        #: inherit the executing event's origin. ``None`` costs one
        #: attribute read per schedule and one store per event.
        self.shard_ctx = None
        #: Origin rank of the event currently executing (``None`` between
        #: events). Only consulted when :attr:`shard_ctx` is set.
        self._origin: Optional[int] = None

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Entry:
        """Schedule ``fn(*args)`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> Entry:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``.

        Returns the event, which is its own queue entry; pass it to
        :meth:`cancel` to keep it from firing. ``when`` must be at or
        after the current time, which also rejects NaN.
        """
        if not when >= self.now:
            raise ValueError(
                f"cannot schedule at t={when}: the current time is t={self.now}"
            )
        origin = self._origin
        if origin is None and self.shard_ctx is not None:
            # Root event: allocate its rank. Ranks advance even for roots
            # this shard does not own (every shard runs the same setup
            # code in lockstep), so rank N means the same root on every
            # shard. Unowned flow injections are returned cancelled and
            # never enter the queue.
            origin, admit = self.shard_ctx.root_origin(fn, args)
            if not admit:
                return [when, next(self._seq), None, args, origin]
        event = [when, next(self._seq), fn, args, origin]
        fifo = self._fifo
        if fifo and when < fifo[-1][0]:
            heappush(self._heap, event)
        else:
            fifo.append(event)
        return event

    def cancel(self, event: Entry) -> None:
        """Keep ``event`` from firing. It stays queued as a tombstone (and
        in :attr:`pending_events`) until the drain reaches it. Cancelling
        an event that already fired or was cancelled does nothing."""
        event[2] = None

    # -- execution ------------------------------------------------------------

    def _drain(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        exhaust: Optional[str] = "warn",
    ) -> int:
        """The single drain loop behind :meth:`step`, :meth:`run`, and
        :meth:`run_until_idle`.

        Executes due events in ``(time, seq)`` order until the queue is
        empty, the next event lies beyond ``until``, or ``max_events``
        have fired. ``exhaust`` controls what hitting ``max_events`` with
        real work still pending does: ``"warn"`` emits the
        ``sim.max_events_exhausted`` counter plus a ``RuntimeWarning``,
        ``"raise"`` emits the counter and raises, ``None`` is silent
        (used by :meth:`step`). Returns the number of events executed.

        Each turn pops the smaller of the two heads. An event that must
        not run yet (beyond ``until``, or past ``max_events``) goes back
        on the heap, which accepts any entry; it is still the smallest
        queued, so the next turn pops it first.

        The cyclic collector is disabled for the length of the loop and
        re-enabled in the ``finally`` only if it was enabled on entry, so
        a re-entrant :meth:`step` from a handler, a caller that had
        disabled it, an exception out of a handler and the ``max_events``
        ``raise`` all leave the process as they found it. Nothing the
        loop runs makes cyclic garbage (see the class docstring), and a
        collection that frees nothing still walks the whole live heap.
        """
        # ``_events_executed`` is bumped per event, not batched at drain
        # exit: callbacks running *inside* the drain (e.g. a workload whose
        # termination condition reads ``sim.events_executed``) must observe
        # a live count, or a self-rescheduling chain never sees progress
        # and spins until the ``max_events`` guard trips.
        executed = 0
        heap = self._heap
        fifo = self._fifo
        popleft = fifo.popleft
        after = self.on_event
        collecting = gc.isenabled()
        gc.disable()
        try:
            while True:
                if fifo:
                    if heap and heap[0] < fifo[0]:
                        event = heappop(heap)
                    else:
                        event = popleft()
                elif heap:
                    event = heappop(heap)
                else:
                    break
                fn = event[2]
                if fn is None:
                    continue
                if max_events is not None and executed >= max_events:
                    heappush(heap, event)
                    self._note_exhausted(max_events, exhaust)
                    return executed
                when = event[0]
                if until is not None and when > until:
                    heappush(heap, event)
                    break
                self.now = when
                self._origin = event[4]
                fn(*event[3])
                executed += 1
                self._events_executed += 1
                if after is not None:
                    after(when)
        finally:
            # Code running after the drain (scenario drivers, reporters)
            # is root context again.
            self._origin = None
            if collecting:
                gc.enable()
        return executed

    def _note_exhausted(self, max_events: int, exhaust: Optional[str]) -> None:
        if exhaust is None:
            return
        self.metrics.counter("sim.max_events_exhausted").inc()
        if exhaust == "raise":
            raise RuntimeError(
                f"simulation did not quiesce within {max_events} events"
            )
        warnings.warn(
            f"simulation stopped after max_events={max_events} with events "
            f"still pending (t={self.now})",
            RuntimeWarning,
            stacklevel=3,
        )

    def step(self) -> bool:
        """Execute the next pending event. Returns False if none remain."""
        return self._drain(max_events=1, exhaust=None) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so that measurements taken
        "at the end of the run" line up across runs. Exhausting
        ``max_events`` with work still pending is telemetry-visible: the
        ``sim.max_events_exhausted`` counter increments and a
        ``RuntimeWarning`` is issued (it used to return silently). A NaN
        ``until`` is rejected: no event time compares beyond it.
        """
        if until is not None and until != until:
            raise ValueError("cannot run until t=nan")
        self._drain(until=until, max_events=max_events, exhaust="warn")
        if until is not None and self.now < until:
            self.now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain; guard against runaway event storms."""
        self._drain(max_events=max_events, exhaust="raise")

    # -- bookkeeping ----------------------------------------------------------

    def new_uid(self) -> int:
        """Allocate the next packet-span correlation id (monotonic, >= 1)."""
        uid = next(self._uid_seq)
        if self.shard_ctx is not None:
            self.shard_ctx.note_uid(uid)
        return uid

    def tag_packet(self, pkt: Any) -> int:
        """Ensure ``pkt.meta['uid']`` is set; returns the packet's uid.

        The uid identifies one physical copy of a packet across its whole
        lifetime; derived copies (duplicates, retransmissions, replies,
        released piggybacks) get fresh uids with ``meta['parent_uid']``
        pointing at the packet that caused them.
        """
        uid = pkt.meta.get("uid")
        if uid is None:
            uid = pkt.meta["uid"] = self.new_uid()
        return uid

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled tombstones)."""
        return len(self._heap) + len(self._fifo)

    @property
    def events_executed(self) -> int:
        return self._events_executed
