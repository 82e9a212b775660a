"""The named chaos campaigns.

A campaign is a deterministic composition: one reference workload (the
echo counter of :mod:`repro.chaos.workload`), one fault schedule built
from :class:`repro.workloads.failures.FailureSchedule` primitives, and
the run parameters (duration, pacing, lease period, whether the store
failover coordinator runs). Campaign builders receive the schedule after
the deployment exists, so they can resolve links and stores by name.

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

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.net.links import LinkImpairment
from repro.workloads.failures import FailureSchedule

#: ``topology.links`` index of the agg1<->tor1 fabric link (4 core-agg
#: links precede it); used where a primitive takes an index.
AGG1_TOR1 = 4


@dataclass(frozen=True)
class Campaign:
    name: str
    description: str
    #: Simulated time the main phase runs before draining.
    duration_us: float
    #: Echo-counter packets sent, one every ``gap_us`` starting at t=10ms.
    packets: int
    gap_us: float
    lease_period_us: float = 200_000.0
    #: Builds the fault schedule once the deployment exists.
    build: Optional[Callable[[FailureSchedule], None]] = None
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
    #: The hand-written campaigns keep the default single 3-chain; the
    #: fuzzer varies the shape per generated schedule.
    num_shards: int = 1
    chain_length: int = 3


def _single_failover(s: FailureSchedule) -> None:
    s.single_failover(fail_at_us=120_000.0, recover_at_us=700_000.0)


def _flapping_link(s: FailureSchedule) -> None:
    s.flapping_link(first_fail_us=100_000.0, period_us=150_000.0,
                    flaps=3, link_index=AGG1_TOR1)


def _gray_link(s: FailureSchedule) -> None:
    s.gray_link(start_us=50_000.0, duration_us=300_000.0,
                link=s.link_between("agg1", "tor1"),
                corrupt_rate=0.05, drop_rate=0.02,
                bandwidth_scale=0.5, jitter_us=20.0)


def _partitioned_store_head(s: FailureSchedule) -> None:
    link = s.link_between("tor1", "st1")
    s.block_direction_at(100_000.0, link, from_node="st1")
    s.clear_link_at(250_000.0, link, from_node="st1")


def _rolling_rack_failure(s: FailureSchedule) -> None:
    s.rack_failure(300_000.0, rack=1)
    s.rack_recovery(900_000.0, rack=1)


def _lease_race(s: FailureSchedule) -> None:
    for t in (150_000.0, 300_000.0, 450_000.0):
        s.expire_leases_at(t)


def _duplicate_storm(s: FailureSchedule) -> None:
    link = s.link_between("tor1", "st1")
    s.impair_link_at(100_000.0, link,
                     LinkImpairment(duplicate_rate=0.3, jitter_us=10.0))
    s.clear_link_at(400_000.0, link)


def _store_crash_recover(s: FailureSchedule) -> None:
    s.crash_store_at(250_000.0, 0)
    s.recover_store_from_disk_at(400_000.0, 0)


def _corruption_storm(s: FailureSchedule) -> None:
    # Sustained, not swept: one fabric link corrupts heavily for nearly
    # the whole traffic window while load keeps flowing (ROADMAP item 3's
    # LinkGuardian direction — the link never dies, so nothing reroutes).
    s.gray_link(start_us=50_000.0, duration_us=850_000.0,
                link=s.link_between("agg1", "tor1"), corrupt_rate=0.15)


def _corruption_storm_store(s: FailureSchedule) -> None:
    # Same storm aimed at the protocol-only store access link: every
    # corrupted frame is a lost write, ack, or chain update, so the
    # switch's retransmission path carries the entire load.
    s.gray_link(start_us=50_000.0, duration_us=700_000.0,
                link=s.link_between("tor1", "st1"), corrupt_rate=0.2)


def _corruption_sweep(s: FailureSchedule) -> None:
    pairs = [("core1", "agg1"), ("core1", "agg2"),
             ("core2", "agg1"), ("core2", "agg2")]
    for i, (a, b) in enumerate(pairs):
        start = 100_000.0 + i * 120_000.0
        s.gray_link(start_us=start, duration_us=120_000.0,
                    link=s.link_between(a, b), corrupt_rate=0.08)


CAMPAIGNS: Dict[str, Campaign] = {
    c.name: c
    for c in (
        Campaign(
            name="single_failover",
            description="§7.3 baseline: one aggregation switch fails and "
                        "recovers; state migrates via lease expiry.",
            duration_us=1_500_000.0, packets=40, gap_us=10_000.0,
            build=_single_failover,
        ),
        Campaign(
            name="flapping_link",
            description="agg1-tor1 flaps three times (Fig 7a hazard: the "
                        "switch keeps state across connectivity loss).",
            duration_us=1_200_000.0, packets=50, gap_us=10_000.0,
            build=_flapping_link,
        ),
        Campaign(
            name="gray_link",
            description="agg1-tor1 corrupts, drops, jitters, and runs at "
                        "half rate for 300ms; routing never reacts.",
            duration_us=1_000_000.0, packets=60, gap_us=6_000.0,
            build=_gray_link,
        ),
        Campaign(
            name="partitioned_store_head",
            description="Asymmetric partition: the chain head's egress "
                        "blackholes for 150ms; requests arrive, acks and "
                        "chain updates vanish; retransmission heals it.",
            duration_us=1_500_000.0, packets=40, gap_us=10_000.0,
            build=_partitioned_store_head,
        ),
        Campaign(
            name="rolling_rack_failure",
            description="Rack 1 dies whole (ToR + chain head st1); the "
                        "failover coordinator splices the chain and "
                        "repoints the shard head; the rack later returns.",
            duration_us=2_000_000.0, packets=60, gap_us=10_000.0,
            build=_rolling_rack_failure, coordinator=True,
        ),
        Campaign(
            name="lease_race",
            description="Forced switch-side lease expiry thrice mid-flow "
                        "with a short lease: re-acquisition races writes.",
            duration_us=1_200_000.0, packets=50, gap_us=10_000.0,
            lease_period_us=100_000.0, build=_lease_race,
        ),
        Campaign(
            name="duplicate_storm",
            description="The store access link duplicates 30% of protocol "
                        "frames for 300ms: per-flow sequencing and stale-"
                        "ack filtering (§5.2) must dedup the storm.",
            duration_us=1_200_000.0, packets=50, gap_us=8_000.0,
            build=_duplicate_storm,
        ),
        Campaign(
            name="store_crash_recover_wal",
            description="The chain head hard-crashes (DRAM lost) and "
                        "restarts 150ms later, replaying its write-ahead "
                        "log; every acknowledged write must survive the "
                        "rebuild (sequence monotonicity holds across it).",
            duration_us=1_500_000.0, packets=40, gap_us=10_000.0,
            build=_store_crash_recover, store_backend="wal",
        ),
        Campaign(
            name="corruption_storm",
            description="Sustained 15% corruption on agg1-tor1 for 850ms "
                        "under continuous load; the link never dies, so "
                        "retransmission alone must carry the storm.",
            duration_us=1_500_000.0, packets=60, gap_us=8_000.0,
            build=_corruption_storm,
        ),
        Campaign(
            name="corruption_storm_store",
            description="Sustained 20% corruption on the tor1-st1 store "
                        "access link: every corrupted frame is protocol "
                        "traffic, so switch-side retransmission and §5.2 "
                        "sequencing absorb the storm.",
            duration_us=1_500_000.0, packets=50, gap_us=8_000.0,
            build=_corruption_storm_store,
        ),
        Campaign(
            name="corruption_sweep",
            description="An 8% corruption window sweeps across all four "
                        "core-agg fabric links in sequence.",
            duration_us=1_500_000.0, packets=60, gap_us=8_000.0,
            build=_corruption_sweep,
        ),
    )
}
