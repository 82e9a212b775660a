"""Delta-debugging fault schedules down to minimal reproducers.

When the fuzzer finds a violating schedule it usually carries faults
that have nothing to do with the failure. The shrinker reduces the
schedule in two phases, re-running the simulation as its oracle:

1. **drop faults** — classic ddmin (Zeller & Hildebrandt) over *fault
   units*. A unit is a fault plus the clearing fault that undoes it
   (dropping a ``fail_link`` but keeping its ``recover_link`` would just
   produce an invalid schedule), or a standalone fault like
   ``expire_leases``. Trailing clears whose fault was dropped go with
   it.
2. **tighten times** — snap each surviving fault's time to the coarsest
   grid that still reproduces (100ms, then 10ms), then shorten the
   campaign duration to the smallest menu value that still fits.

The oracle is witness coverage, not just "FAIL": a candidate reproduces
iff its :class:`~repro.model.witness.ViolationWitness` covers the
original one, so shrinking a linearizability break cannot drift into an
unrelated no-progress stall and declare victory. Every oracle run costs
one simulation; ``budget`` caps the total, and the whole process is
deterministic (no RNG), so the same violating schedule always shrinks
to the same minimal reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.chaos.campaigns import Campaign
from repro.chaos.fuzz import run_spec
from repro.model.witness import ViolationWitness
from repro.workloads.failures import FaultSpec, pair_clears

#: Candidate durations (ascending) the duration-tightening pass tries.
DURATION_MENU_US: Tuple[float, ...] = (800_000.0, 1_000_000.0, 1_200_000.0)

#: Time grids (coarse to fine) the time-tightening pass snaps to.
SNAP_GRIDS_US: Tuple[float, ...] = (100_000.0, 10_000.0)

#: A fault window must close at least this long before the duration the
#: tightening pass proposes (mirrors the generator's settle margin).
_DURATION_MARGIN_US = 200_000.0


@dataclass
class ShrinkResult:
    spec: Campaign
    witness: ViolationWitness
    runs_used: int
    original_faults: int


def _units(faults: Sequence[FaultSpec]) -> List[Tuple[FaultSpec, ...]]:
    """Group a fault tuple into droppable units (fault + its clear).

    Each clearing fault attaches to the nearest earlier unmatched fault
    of a kind it undoes on the same target; an unmatched clear becomes
    its own unit (it will be rejected by schedule validation if kept
    alone, which the oracle treats as non-reproducing — fine, ddmin
    simply keeps its partner).
    """
    ordered = sorted(faults, key=FaultSpec.sort_key)
    return [tuple(unit) for unit in
            pair_clears(ordered, lambda f: (f.kind, f.target))]


def _with_faults(spec: Campaign,
                 units: Sequence[Tuple[FaultSpec, ...]]) -> Campaign:
    return replace(spec, faults=tuple(f for unit in units for f in unit))


class _Oracle:
    """Budget-capped reproduction test with memoization."""

    def __init__(self, original: ViolationWitness, bug: Optional[str],
                 budget: int) -> None:
        self.original = original
        self.bug = bug
        self.budget = budget
        self.runs_used = 0
        self._seen: dict = {}

    def exhausted(self) -> bool:
        return self.runs_used >= self.budget

    def reproduces(self, spec: Campaign) -> Optional[ViolationWitness]:
        """The spec's witness if it covers the original, else None."""
        key = (spec.faults, spec.duration_us)
        if key in self._seen:
            return self._seen[key]
        if self.exhausted():
            return None
        self.runs_used += 1
        try:
            witness = ViolationWitness.from_report(
                run_spec(spec, bug=self.bug).report)
        except Exception:
            # An invalid candidate (e.g. a stranded clear) does not
            # reproduce anything.
            self._seen[key] = None
            return None
        verdict = witness if witness.covers(self.original) else None
        self._seen[key] = verdict
        return verdict


def _ddmin(units: List[Tuple[FaultSpec, ...]], spec: Campaign,
           oracle: _Oracle) -> Tuple[List[Tuple[FaultSpec, ...]],
                                     ViolationWitness]:
    """Classic ddmin over fault units; returns (minimal units, witness)."""
    witness = oracle.original
    n = 2
    while len(units) >= 2 and not oracle.exhausted():
        chunk = max(1, len(units) // n)
        reduced = False
        start = 0
        while start < len(units) and not oracle.exhausted():
            candidate = units[:start] + units[start + chunk:]
            got = oracle.reproduces(_with_faults(spec, candidate))
            if got is not None:
                units = candidate
                witness = got
                n = max(n - 1, 2)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if n >= len(units):
                break
            n = min(n * 2, len(units))
    return units, witness


def _tighten_times(spec: Campaign, witness: ViolationWitness,
                   oracle: _Oracle) -> Tuple[Campaign,
                                             ViolationWitness]:
    """Snap each fault time to the coarsest grid that still reproduces."""
    for grid in SNAP_GRIDS_US:
        faults = list(spec.faults)
        for i, fault in enumerate(faults):
            if oracle.exhausted():
                return spec, witness
            snapped = round(fault.time_us / grid) * grid
            if snapped == fault.time_us or snapped <= 0:
                continue
            candidate_faults = list(faults)
            candidate_faults[i] = replace(fault, time_us=snapped)
            candidate = replace(spec, faults=tuple(candidate_faults))
            got = oracle.reproduces(candidate)
            if got is not None:
                spec, witness = candidate, got
                faults = list(spec.faults)
    return spec, witness


def _tighten_duration(spec: Campaign, witness: ViolationWitness,
                      oracle: _Oracle) -> Tuple[Campaign,
                                                ViolationWitness]:
    latest = max((f.time_us for f in spec.faults), default=0.0)
    for duration in DURATION_MENU_US:
        if duration >= spec.duration_us:
            break
        if latest + _DURATION_MARGIN_US > duration or oracle.exhausted():
            continue
        candidate = replace(spec, duration_us=duration)
        got = oracle.reproduces(candidate)
        if got is not None:
            return candidate, got
    return spec, witness


def shrink_spec(
    spec: Campaign,
    witness: ViolationWitness,
    bug: Optional[str] = None,
    budget: int = 80,
) -> ShrinkResult:
    """Shrink a violating schedule to a minimal reproducer.

    ``witness`` is the failure the original spec exhibited; ``bug`` is
    the seeded mutation active when it was found (None for a real bug).
    ``budget`` caps the number of oracle simulations across all phases.
    """
    original_faults = len(spec.faults)
    oracle = _Oracle(witness, bug, budget)
    units, witness = _ddmin(_units(spec.faults), spec, oracle)
    spec = _with_faults(spec, units)
    spec, witness = _tighten_times(spec, witness, oracle)
    spec, witness = _tighten_duration(spec, witness, oracle)
    return ShrinkResult(
        spec=replace(spec, name=spec.name + "-min"),
        witness=witness,
        runs_used=oracle.runs_used,
        original_faults=original_faults,
    )
