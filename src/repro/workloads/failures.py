"""Fault primitives and the fault table.

:class:`FailureSchedule` schedules faults on a deployment: fail-stop of
switches, stores and links (§7.3), and — beyond clean fail-stop — the
gray-failure primitives of `repro.net.links.LinkImpairment` (corruption,
duplication, jitter, asymmetric partition, degraded bandwidth), store
crash+restart and degradation, and switch-side lease-expiry races.
:data:`FAULTS` is the one table of fault kinds, one row per primitive;
a :class:`FaultSpec` is one row applied at one time, so a tuple of them
is a schedule that serializes, replays and shrinks (the chaos engine,
:mod:`repro.chaos`, writes every campaign that way).

A schedule records what it did, so an experiment can correlate
measurements with injected faults.
Every fault application and clearance is also emitted as a
``fault.inject`` / ``fault.clear`` trace event at the simulated time it
fires, which is how chaos verdict reports reconstruct the timeline.

Determinism: a schedule holds no randomness of its own — fault times are
explicit, and any probabilistic behaviour (loss, corruption, jitter)
draws from the simulator's seeded RNG when packets traverse the impaired
element. Two runs with the same seed inject byte-identical fault streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from repro.deploy import Deployment
from repro.net import constants
from repro.net.links import Link, LinkImpairment, Port
from repro.telemetry import trace as tt


class ScheduleError(ValueError):
    """A fault schedule is malformed: a fault names no kind of the table,
    lacks a required parameter or targets a switch, store or link the
    deployment does not have; it lands at/after the campaign's
    ``duration_us`` (it would fire inside the drain window, or never); or
    a recovery/clear has no earlier matching fault to undo."""


@dataclass
class InjectedFault:
    time_us: float
    kind: str       # the table row's ``injected`` string ("fail_node", ...)
    target: str
    spec_kind: str  # the :data:`FAULTS` kind that scheduled it
    detail: str = ""


_F = TypeVar("_F")


def pair_clears(ordered: Iterable[_F],
                key: Callable[[_F], Tuple[str, object]]) -> List[List[_F]]:
    """Group time-ordered faults into units: a fault opens a unit, and a
    clearing fault joins the nearest earlier still-open unit of a kind it
    ``undoes`` on the same target (one with no such unit stands alone).
    ``key`` gives a fault's ``(FAULTS kind, target)``."""
    units: List[List[_F]] = []
    open_units: List[Tuple[Tuple[str, object], List[_F]]] = []
    for fault in ordered:
        kind, target = key(fault)
        undoes = FAULTS[kind].undoes
        for i in range(len(open_units) - 1, -1, -1):
            (open_kind, open_target), unit = open_units[i]
            if open_kind in undoes and open_target == target:
                unit.append(fault)
                del open_units[i]
                break
        else:
            units.append([fault])
            if not undoes:
                open_units.append(((kind, target), units[-1]))
    return units


@dataclass
class FailureSchedule:
    """A list of injected faults, applied to a deployment's topology."""

    deployment: Deployment
    detect_delay_us: float = constants.FAILURE_DETECT_US
    #: Campaign duration, when known. A fault scheduled at or after it
    #: would fire in the drain window (or not at all) — rejected with a
    #: :class:`ScheduleError` at scheduling time instead of silently
    #: misbehaving.
    duration_us: Optional[float] = None
    log: List[InjectedFault] = field(default_factory=list)
    #: Saved (proc_delay_us, service_time_us) per degraded store, so
    #: restore_store_at can undo a degradation exactly.
    _store_baseline: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    # -- plumbing ----------------------------------------------------------

    def _target(self, kind: str, value: object):
        """The switch, store or link ``value`` names for a ``kind`` fault
        (the table row's target type says which)."""
        target = FAULTS[kind].target
        topo = self.deployment.bed.topology
        pool = {"switch": topo.nodes, "store": self.deployment.stores,
                "link": topo.links}[target]
        if isinstance(pool, dict):
            if value in pool:
                return pool[value]
            valid = ", ".join(sorted(pool))
        else:
            if isinstance(value, int) and 0 <= value < len(pool):
                return pool[value]
            valid = f"0..{len(pool) - 1}"
        raise ScheduleError(
            f"fault {kind!r}: {TARGET_PARAM[target]}={value!r} names no "
            f"{target} of this deployment (valid: {valid})"
        )

    def _inject(self, time_us: float, kind: str, target: str,
                fn: Callable[[], None], detail: str = "") -> None:
        """Schedule ``fn`` at ``time_us``, logging and tracing the fault."""
        # Comparisons written so that NaN fails them.
        if not time_us >= 0:
            raise ScheduleError(
                f"fault {kind!r} on {target!r} scheduled at negative (or "
                f"NaN) time t={time_us}"
            )
        if self.duration_us is not None and not time_us < self.duration_us:
            raise ScheduleError(
                f"fault {kind!r} on {target!r} scheduled at t={time_us}us, "
                f"at/after the campaign duration ({self.duration_us}us): it "
                f"would fire inside the drain window; move it earlier or "
                f"extend the campaign"
            )
        row = FAULTS[kind]
        tracer = self.deployment.sim.tracer
        event_type = tt.FAULT_CLEAR if row.undoes else tt.FAULT_INJECT

        def fire() -> None:
            tracer.emit(event_type, kind=row.injected, target=target,
                        detail=detail)
            fn()

        self.deployment.sim.schedule_at(time_us, fire)
        self.log.append(
            InjectedFault(time_us, row.injected, target, kind, detail))

    @staticmethod
    def _direction_port(link: Link, from_node: Optional[str]) -> Optional[Port]:
        """The sending port of the ``from_node`` direction (None = both)."""
        if from_node is None:
            return None
        if link.a.node.name == from_node:
            return link.a
        if link.b.node.name == from_node:
            return link.b
        raise ScheduleError(
            f"{from_node!r} is not an endpoint of {link.name}")

    # -- node / link fail-stop primitives ----------------------------------
    # Parameter names are the FaultSpec param names: ``apply_specs`` calls
    # a row's primitive as ``primitive(schedule, time_us, **params)``.

    def fail_switch_at(self, time_us: float, switch: str) -> None:
        topo = self.deployment.bed.topology
        node = self._target("fail_switch", switch)
        self._inject(time_us, "fail_switch", node.name,
                     lambda: topo.fail_node(node, self.detect_delay_us))

    def recover_switch_at(self, time_us: float, switch: str) -> None:
        topo = self.deployment.bed.topology
        node = self._target("recover_switch", switch)
        self._inject(time_us, "recover_switch", node.name,
                     lambda: topo.recover_node(node, self.detect_delay_us))

    def fail_store_at(self, time_us: float, index: int) -> None:
        """Fail-stop a store node. Its DRAM records survive a later
        ``recover_store_at`` (a process pause, not a disk loss); whether
        its chain still references it is up to the failover coordinator
        running in the experiment."""
        store = self._target("fail_store", index)
        self._inject(time_us, "fail_store", store.name, store.fail)

    def recover_store_at(self, time_us: float, index: int) -> None:
        store = self._target("recover_store", index)
        self._inject(time_us, "recover_store", store.name, store.recover)

    def crash_store_at(self, time_us: float, index: int) -> None:
        """Hard-crash a store node: the process dies AND its in-memory
        record set is lost. What comes back on restart is whatever the
        node's storage backend can rebuild — everything for a WAL
        backend, nothing for a volatile one."""
        store = self._target("crash_store", index)
        self._inject(time_us, "crash_store", store.name, store.crash,
                     detail=f"backend={store.backend.name}")

    def recover_store_from_disk_at(self, time_us: float, index: int) -> None:
        """Restart a crashed store node, rebuilding records through
        ``backend.recover()`` (snapshot + WAL replay for durable
        backends) before it serves requests again."""
        store = self._target("recover_store_from_disk", index)
        self._inject(time_us, "recover_store_from_disk", store.name,
                     lambda: store.restart(),
                     detail=f"backend={store.backend.name}")

    def fail_link_at(self, time_us: float, link: int) -> None:
        topo = self.deployment.bed.topology
        target = self._target("fail_link", link)
        self._inject(time_us, "fail_link", target.name,
                     lambda: topo.fail_link(target, self.detect_delay_us))

    def recover_link_at(self, time_us: float, link: int) -> None:
        topo = self.deployment.bed.topology
        target = self._target("recover_link", link)
        self._inject(time_us, "recover_link", target.name,
                     lambda: topo.recover_link(target, self.detect_delay_us))

    # -- gray-failure primitives -------------------------------------------

    def impair_link_at(self, time_us: float, link: int,
                       from_node: Optional[str] = None,
                       **impairment: object) -> None:
        """Install a gray-failure impairment (the ``LinkImpairment``
        fields given as keywords) on ``topology.links[link]``.

        ``from_node`` names the sending side of the affected direction
        (``blocked=True`` there is an asymmetric partition); ``None``
        impairs both directions. Routing beliefs are NOT updated: gray
        failures are exactly the faults detection misses.
        """
        target = self._target("impair_link", link)
        knobs = LinkImpairment(**impairment)  # type: ignore[arg-type]
        port = self._direction_port(target, from_node)
        detail = knobs.describe() + (f" from={from_node}" if from_node else "")
        self._inject(time_us, "impair_link", target.name,
                     lambda: target.impair(knobs, port), detail=detail)

    def clear_link_at(self, time_us: float, link: int,
                      from_node: Optional[str] = None) -> None:
        target = self._target("clear_link", link)
        port = self._direction_port(target, from_node)
        self._inject(time_us, "clear_link", target.name,
                     lambda: target.clear_impairments(port))

    def degrade_store_at(self, time_us: float, index: int,
                         proc_delay_us: Optional[float] = None,
                         service_time_us: Optional[float] = None) -> None:
        """Gray store: inflate a node's processing/service time."""
        store = self._target("degrade_store", index)

        def apply() -> None:
            self._store_baseline.setdefault(
                store.name, (store.proc_delay_us, store.service_time_us))
            if proc_delay_us is not None:
                store.proc_delay_us = proc_delay_us
            if service_time_us is not None:
                store.service_time_us = service_time_us

        detail = (f"proc_delay_us={proc_delay_us} "
                  f"service_time_us={service_time_us}")
        self._inject(time_us, "degrade_store", store.name, apply, detail=detail)

    def restore_store_at(self, time_us: float, index: int) -> None:
        store = self._target("restore_store", index)

        def restore() -> None:
            baseline = self._store_baseline.pop(store.name, None)
            if baseline is not None:
                store.proc_delay_us, store.service_time_us = baseline

        self._inject(time_us, "restore_store", store.name, restore)

    def expire_leases_at(self, time_us: float,
                         switch: Optional[str] = None) -> None:
        """Force switch-side lease expiry (the lease-race fault model)."""
        engines = self.deployment.engines
        if switch is not None:
            self._target("expire_leases", switch)

        def expire() -> None:
            for name, engine in engines.items():
                if switch is None or name == switch:
                    engine.expire_lease_now()

        self._inject(time_us, "expire_leases", switch or "all-switches", expire)

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Reject recover-before-fail orderings.

        Every clearing fault (a kind whose table row ``undoes`` others)
        must be preceded — strictly earlier on the schedule's timeline —
        by a fault it undoes on the same target; otherwise the recovery is
        a no-op at best and a double-recovery hazard at worst. Raises
        :class:`ScheduleError` naming the offending fault.
        """
        ordered = sorted(self.log, key=lambda f: f.time_us)
        for i, fault in enumerate(ordered):
            undoes = FAULTS[fault.spec_kind].undoes
            if not undoes:
                continue
            if not any(prior.spec_kind in undoes
                       and prior.target == fault.target
                       and prior.time_us < fault.time_us
                       for prior in ordered[:i]):
                matches = "/".join(FAULTS[k].injected for k in undoes)
                raise ScheduleError(
                    f"{fault.kind!r} on {fault.target!r} at t={fault.time_us}us "
                    f"has no earlier matching {matches} fault to "
                    f"undo: recover-before-fail ordering"
                )

    def active_at(self, t_us: float) -> List[InjectedFault]:
        """The injected faults still in effect at simulated time ``t_us``.

        A fault is active once its injection time has passed and no
        later clear that undoes it on the same target has fired by
        ``t_us``. Pure function of the schedule — the observability
        heartbeat reports its length as ``faults_active``, so it must
        never read live topology state.
        """
        fired = sorted((f for f in self.log if f.time_us <= t_us),
                       key=lambda f: (f.time_us, f.kind, f.target))
        units = pair_clears(fired, lambda f: (f.spec_kind, f.target))
        return [unit[0] for unit in units
                if len(unit) == 1 and not is_clear(unit[0].spec_kind)]

    # -- reporting ------------------------------------------------------------

    def summary(self) -> List[Tuple[float, str, str]]:
        return [(f.time_us, f.kind, f.target) for f in
                sorted(self.log, key=lambda f: f.time_us)]

    def detailed_summary(self) -> List[Dict[str, object]]:
        """Machine-readable fault list for chaos verdict reports."""
        return [
            {"time_us": f.time_us, "kind": f.kind, "target": f.target,
             "detail": f.detail}
            for f in sorted(self.log, key=lambda f: (f.time_us, f.kind, f.target))
        ]


# -- the fault table -------------------------------------------------------------

#: Target type -> the FaultSpec parameter that names the target.
TARGET_PARAM: Dict[str, str] = {
    "switch": "switch", "store": "index", "link": "link"}


@dataclass(frozen=True)
class FaultKind:
    """One row of :data:`FAULTS`."""

    #: ``"switch"`` | ``"store"`` | ``"link"``.
    target: str
    #: Kind string of the ``fault.inject`` / ``fault.clear`` trace records
    #: and of the verdict report's fault list.
    injected: str
    #: The :class:`FailureSchedule` primitive, called as
    #: ``primitive(schedule, time_us, **params)``.
    primitive: Callable[..., None]
    required: Tuple[str, ...] = ()
    optional: Tuple[str, ...] = ()
    #: The kinds this one clears; empty for a fault proper.
    undoes: Tuple[str, ...] = ()

    @property
    def params(self) -> Tuple[str, ...]:
        """Accepted parameter names, in canonical (serialized) order."""
        return self.required + self.optional


_S = FailureSchedule
_IMPAIRMENT = ("corrupt_rate", "drop_rate", "duplicate_rate", "jitter_us",
               "bandwidth_scale", "blocked")

#: Every fault kind, one row each. Parameter validation, spec replay,
#: schedule validation, fault/clear pairing (the shrinker's units, the
#: heartbeat's ``faults_active``) and the "a clear is not a fault" filter
#: of the recovery-latency measurements all read this table; a new fault
#: kind is one primitive and one row. docs/FAULTS.md writes it out.
FAULTS: Dict[str, FaultKind] = {
    "fail_switch": FaultKind(
        "switch", "fail_node", _S.fail_switch_at, ("switch",)),
    "recover_switch": FaultKind(
        "switch", "recover_node", _S.recover_switch_at, ("switch",),
        undoes=("fail_switch",)),
    "fail_store": FaultKind(
        "store", "fail_node", _S.fail_store_at, ("index",)),
    "recover_store": FaultKind(
        "store", "recover_node", _S.recover_store_at, ("index",),
        undoes=("fail_store",)),
    "crash_store": FaultKind(
        "store", "crash_store", _S.crash_store_at, ("index",)),
    "recover_store_from_disk": FaultKind(
        "store", "restart_store", _S.recover_store_from_disk_at, ("index",),
        undoes=("crash_store",)),
    "fail_link": FaultKind(
        "link", "fail_link", _S.fail_link_at, ("link",)),
    "recover_link": FaultKind(
        "link", "recover_link", _S.recover_link_at, ("link",),
        undoes=("fail_link",)),
    "impair_link": FaultKind(
        "link", "impair_link", _S.impair_link_at, ("link",),
        optional=_IMPAIRMENT + ("from_node",)),
    "clear_link": FaultKind(
        "link", "clear_link", _S.clear_link_at, ("link",),
        optional=("from_node",), undoes=("impair_link",)),
    "degrade_store": FaultKind(
        "store", "degrade_store", _S.degrade_store_at, ("index",),
        optional=("proc_delay_us", "service_time_us")),
    "restore_store": FaultKind(
        "store", "restore_store", _S.restore_store_at, ("index",),
        undoes=("degrade_store",)),
    "expire_leases": FaultKind(
        "switch", "expire_leases", _S.expire_leases_at,
        optional=("switch",)),
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault as data: a :data:`FAULTS` kind, a time, and that row's
    JSON-scalar parameters. A tuple of specs IS a schedule — buildable
    (:func:`apply_specs`), serializable, and replayable."""

    kind: str
    time_us: float
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        row = FAULTS.get(self.kind)
        if row is None:
            raise ScheduleError(f"unknown fault kind {self.kind!r}")
        given = [name for name, _ in self.params]
        extra = [name for name in given if name not in row.params]
        if extra:
            raise ScheduleError(
                f"fault kind {self.kind!r} takes no parameter "
                f"{', '.join(map(repr, extra))} "
                f"(allowed: {', '.join(row.params)})"
            )
        missing = [name for name in row.required if name not in given]
        if missing:
            raise ScheduleError(
                f"fault kind {self.kind!r} at t={self.time_us}us lacks "
                f"required parameter {', '.join(map(repr, missing))}"
            )

    @property
    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)

    @property
    def target(self) -> Tuple[str, object]:
        """``(target type, value)``: what fault/clear pairing compares."""
        target = FAULTS[self.kind].target
        return (target, self.param_dict.get(TARGET_PARAM[target]))

    def describe(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.params)
        return f"t={self.time_us:.0f}us {self.kind}" + (f" {inner}" if inner else "")

    # -- construction / serialization --------------------------------------

    @classmethod
    def make(cls, kind: str, time_us: float, **params: object) -> "FaultSpec":
        """Build a spec with params in the table's canonical order."""
        names = FAULTS[kind].params if kind in FAULTS else ()
        ordered = [(name, params.pop(name)) for name in names
                   if name in params]
        # Anything left is not the row's: __post_init__ names it.
        return cls(kind, float(time_us), tuple(ordered + sorted(params.items())))

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {"kind": self.kind, "time_us": self.time_us}
        d.update(self.params)
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "FaultSpec":
        params = {k: v for k, v in d.items() if k not in ("kind", "time_us")}
        return cls.make(str(d["kind"]), float(d["time_us"]), **params)  # type: ignore[arg-type]

    #: Deterministic schedule ordering: time, then kind, then params.
    def sort_key(self) -> Tuple[object, ...]:
        return (self.time_us, self.kind, tuple(
            (k, repr(v)) for k, v in self.params))


def is_clear(kind: str) -> bool:
    """Whether a :data:`FAULTS` kind ends a fault rather than being one."""
    return bool(FAULTS[kind].undoes)


def apply_specs(schedule: FailureSchedule,
                specs: Iterable[FaultSpec]) -> None:
    """Schedule a spec tuple on a live schedule, in ``sort_key`` order."""
    for spec in sorted(specs, key=FaultSpec.sort_key):
        FAULTS[spec.kind].primitive(schedule, spec.time_us, **spec.param_dict)
