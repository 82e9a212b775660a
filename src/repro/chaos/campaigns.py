"""A chaos campaign is data.

A :class:`Campaign` is one frozen record: the run parameters (duration,
pacing, lease period, deployment shape, whether the store failover
coordinator runs), the simulator seed, and a tuple of
:class:`~repro.workloads.failures.FaultSpec`. The eleven named campaigns
below and the schedules :func:`repro.chaos.fuzz.generate_spec` draws are
the same type, so every one of them runs, serializes
(``to_dict``/``from_dict``), replays, shrinks and scores through the
same tools. The workload is always the echo counter of
:mod:`repro.chaos.workload`.

Campaign design notes:

* Traffic always flows ``e1 -> s11`` (external host, through the
  RedPlane aggregation layer, into rack 1), so rack-1 faults sit on the
  data path and the protocol path at once.
* The duplicate storm impairs only the ``tor1<->st1`` store access link:
  that link carries protocol traffic exclusively, so the storm exercises
  the store's per-flow sequencing dedup and the switch's stale-ack
  filtering (§5.2) without forging application-level duplicates (a
  duplicated *app* packet legitimately increments the counter twice,
  which is the network's fault, not the protocol's).
* Every fault window closes before the run ends, so a campaign's verdict
  measures recovery, not steady-state degradation.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Dict, Tuple

from repro.workloads.failures import (
    FailureSchedule,
    FaultSpec,
    ScheduleError,
    apply_specs,
)

# ``topology.links`` indices and store positions of the testbed
# (tests/test_chaos.py checks every one against a live deployment).

#: Fabric links that carry rerouteable traffic: core-agg (0-3, in the
#: order core1-agg1, core1-agg2, core2-agg1, core2-agg2), agg-tor (4-7)
#: and core-core (8).
FABRIC_LINKS: Tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 7, 8)
CORE_AGG_LINKS: Tuple[int, ...] = FABRIC_LINKS[:4]
AGG1_TOR1 = 4
#: Store chain position -> access-link index / node name. Only positions
#: below ``num_shards * chain_length`` are active in a deployment.
STORE_LINK: Dict[int, int] = {0: 11, 1: 14, 2: 19}
STORE_NODE: Dict[int, str] = {0: "st1", 1: "st2", 2: "st3"}
TOR1_ST1 = STORE_LINK[0]

#: What a campaign that carries no description of its own (a generated
#: or shrunk schedule) puts in its verdict report.
GENERATED_DESCRIPTION = "fuzz-generated schedule"

#: Field annotation (a string: annotations are postponed) -> the type
#: ``from_dict`` coerces a file's value to.
_SCALARS = {"str": str, "int": int, "float": float, "bool": bool}


@dataclass(frozen=True)
class Campaign:
    name: str
    #: Simulated time the main phase runs before draining.
    duration_us: float
    #: Echo-counter packets sent, one every ``gap_us`` starting at t=10ms.
    packets: int
    gap_us: float
    #: The fault schedule, kept in ``FaultSpec.sort_key`` order.
    faults: Tuple[FaultSpec, ...]
    description: str = GENERATED_DESCRIPTION
    #: Simulator seed ``run_spec`` runs it under.
    sim_seed: int = 42
    lease_period_us: float = 200_000.0
    #: Run a StoreFailoverCoordinator (needed when store nodes die).
    coordinator: bool = False
    #: Routing failure-detection delay for fail-stop faults (gray faults
    #: are never detected — that is what makes them gray).
    detect_delay_us: float = 50_000.0
    #: Storage backend of every store node: ``"memory"`` (the default
    #: volatile reference) or ``"wal"`` (the runner provisions a scratch
    #: directory per node and wires a
    #: :class:`~repro.statestore.wal.WALBackend` into it).
    store_backend: str = "memory"
    #: Deployment shape (``num_shards * chain_length <= 3`` store nodes).
    #: The named campaigns keep the default single 3-chain; the fuzzer
    #: varies the shape per generated schedule.
    num_shards: int = 1
    chain_length: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(
            sorted(self.faults, key=FaultSpec.sort_key)))

    # ``build`` and ``to_campaign`` are what bench/ calls on a campaign and
    # on a generated schedule; kept until a benchmark PR retargets it.
    def build(self, schedule: FailureSchedule) -> None:
        apply_specs(schedule, self.faults)

    def to_campaign(self) -> "Campaign":
        return self

    def to_dict(self) -> Dict[str, object]:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["faults"] = [fault.to_dict() for fault in self.faults]
        if self.description == GENERATED_DESCRIPTION:
            # The file format predates the field: generated schedules and
            # the committed corpus are written without it.
            del d["description"]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "Campaign":
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(d) - set(known))
        missing = sorted(name for name, f in known.items()
                         if f.default is MISSING and name not in d)
        if unknown or missing:
            raise ScheduleError(
                f"campaign {d.get('name')!r}: unknown fields {unknown}, "
                f"missing required fields {missing}")
        values = {name: _SCALARS[known[name].type](d[name])  # type: ignore[index]
                  for name in d if name != "faults"}
        faults = tuple(FaultSpec.from_dict(f)  # type: ignore[arg-type]
                       for f in d["faults"])  # type: ignore[union-attr]
        return cls(faults=faults, **values)  # type: ignore[arg-type]


_f = FaultSpec.make

CAMPAIGNS: Dict[str, Campaign] = {
    c.name: c
    for c in (
        Campaign(
            name="single_failover",
            description="§7.3 baseline: one aggregation switch fails and "
                        "recovers; state migrates via lease expiry.",
            duration_us=1_500_000.0, packets=40, gap_us=10_000.0,
            faults=(_f("fail_switch", 120_000.0, switch="agg1"),
                    _f("recover_switch", 700_000.0, switch="agg1")),
        ),
        Campaign(
            name="flapping_link",
            description="agg1-tor1 flaps three times (Fig 7a hazard: the "
                        "switch keeps state across connectivity loss).",
            duration_us=1_200_000.0, packets=50, gap_us=10_000.0,
            faults=tuple(
                _f(kind, 100_000.0 + flap * 150_000.0 + after, link=AGG1_TOR1)
                for flap in range(3)
                for kind, after in (("fail_link", 0.0),
                                    ("recover_link", 75_000.0))),
        ),
        Campaign(
            name="gray_link",
            description="agg1-tor1 corrupts, drops, jitters, and runs at "
                        "half rate for 300ms; routing never reacts.",
            duration_us=1_000_000.0, packets=60, gap_us=6_000.0,
            faults=(_f("impair_link", 50_000.0, link=AGG1_TOR1,
                       corrupt_rate=0.05, drop_rate=0.02, jitter_us=20.0,
                       bandwidth_scale=0.5),
                    _f("clear_link", 350_000.0, link=AGG1_TOR1)),
        ),
        Campaign(
            name="partitioned_store_head",
            description="Asymmetric partition: the chain head's egress "
                        "blackholes for 150ms; requests arrive, acks and "
                        "chain updates vanish; retransmission heals it.",
            duration_us=1_500_000.0, packets=40, gap_us=10_000.0,
            faults=(_f("impair_link", 100_000.0, link=TOR1_ST1,
                       blocked=True, from_node="st1"),
                    _f("clear_link", 250_000.0, link=TOR1_ST1,
                       from_node="st1")),
        ),
        Campaign(
            name="rolling_rack_failure",
            description="Rack 1 dies whole (ToR + chain head st1); the "
                        "failover coordinator splices the chain and "
                        "repoints the shard head; the rack later returns.",
            duration_us=2_000_000.0, packets=60, gap_us=10_000.0,
            coordinator=True,
            # A correlated failure (fiber cut / PDU): ToR and store server
            # die, and return, at the same instant.
            faults=(_f("fail_switch", 300_000.0, switch="tor1"),
                    _f("fail_store", 300_000.0, index=0),
                    _f("recover_switch", 900_000.0, switch="tor1"),
                    _f("recover_store", 900_000.0, index=0)),
        ),
        Campaign(
            name="lease_race",
            description="Forced switch-side lease expiry thrice mid-flow "
                        "with a short lease: re-acquisition races writes.",
            duration_us=1_200_000.0, packets=50, gap_us=10_000.0,
            lease_period_us=100_000.0,
            faults=tuple(_f("expire_leases", t)
                         for t in (150_000.0, 300_000.0, 450_000.0)),
        ),
        Campaign(
            name="duplicate_storm",
            description="The store access link duplicates 30% of protocol "
                        "frames for 300ms: per-flow sequencing and stale-"
                        "ack filtering (§5.2) must dedup the storm.",
            duration_us=1_200_000.0, packets=50, gap_us=8_000.0,
            faults=(_f("impair_link", 100_000.0, link=TOR1_ST1,
                       duplicate_rate=0.3, jitter_us=10.0),
                    _f("clear_link", 400_000.0, link=TOR1_ST1)),
        ),
        Campaign(
            name="store_crash_recover_wal",
            description="The chain head hard-crashes (DRAM lost) and "
                        "restarts 150ms later, replaying its write-ahead "
                        "log; every acknowledged write must survive the "
                        "rebuild (sequence monotonicity holds across it).",
            duration_us=1_500_000.0, packets=40, gap_us=10_000.0,
            store_backend="wal",
            faults=(_f("crash_store", 250_000.0, index=0),
                    _f("recover_store_from_disk", 400_000.0, index=0)),
        ),
        Campaign(
            name="corruption_storm",
            description="Sustained 15% corruption on agg1-tor1 for 850ms "
                        "under continuous load; the link never dies, so "
                        "retransmission alone must carry the storm.",
            duration_us=1_500_000.0, packets=60, gap_us=8_000.0,
            # Sustained, not swept (LinkGuardian's hard case: the link
            # never dies, so nothing reroutes).
            faults=(_f("impair_link", 50_000.0, link=AGG1_TOR1,
                       corrupt_rate=0.15),
                    _f("clear_link", 900_000.0, link=AGG1_TOR1)),
        ),
        Campaign(
            name="corruption_storm_store",
            description="Sustained 20% corruption on the tor1-st1 store "
                        "access link: every corrupted frame is protocol "
                        "traffic, so switch-side retransmission and §5.2 "
                        "sequencing absorb the storm.",
            duration_us=1_500_000.0, packets=50, gap_us=8_000.0,
            # Every corrupted frame is a lost write, ack, or chain update.
            faults=(_f("impair_link", 50_000.0, link=TOR1_ST1,
                       corrupt_rate=0.2),
                    _f("clear_link", 750_000.0, link=TOR1_ST1)),
        ),
        Campaign(
            name="corruption_sweep",
            description="An 8% corruption window sweeps across all four "
                        "core-agg fabric links in sequence.",
            duration_us=1_500_000.0, packets=60, gap_us=8_000.0,
            faults=tuple(
                fault for i, link in enumerate(CORE_AGG_LINKS) for fault in (
                    _f("impair_link", 100_000.0 + i * 120_000.0, link=link,
                       corrupt_rate=0.08),
                    _f("clear_link", 220_000.0 + i * 120_000.0, link=link))),
        ),
    )
}
