"""Explicit-state model checker for the protocol spec (Appendix C).

A breadth-first exploration of every interleaving of the spec's atomic
steps from the initial state, checking the invariants at every reachable
state — the same thing TLC does for the paper's TLA+ model, minus symmetry
reduction (the state spaces at the paper's constants are small enough).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.model.spec import (
    InvariantViolation,
    ModelConfig,
    ModelState,
    check_invariants,
    initial_state,
    set_lease_period,
    successors,
)


@dataclass
class CheckResult:
    """Outcome of one model-checking run."""

    ok: bool
    states_explored: int
    transitions: int
    violation: Optional[InvariantViolation] = None
    deadlocks: List[ModelState] = field(default_factory=list)
    max_depth: int = 0

    def summary(self) -> str:
        status = "OK" if self.ok else f"VIOLATION: {self.violation}"
        return (
            f"{status} — {self.states_explored} states, "
            f"{self.transitions} transitions, depth {self.max_depth}, "
            f"{len(self.deadlocks)} terminal states"
        )


def model_check(
    cfg: Optional[ModelConfig] = None,
    max_states: int = 2_000_000,
) -> CheckResult:
    """Explore the full reachable state space of the protocol model.

    A *deadlock* here is a non-final state with no enabled action; final
    states (all packets generated and processed, pktgen Done) are expected
    terminals and not reported. Raises nothing: violations are returned in
    the result so tests can assert on them explicitly.
    """
    cfg = cfg or ModelConfig()
    set_lease_period(cfg.lease_period)
    init = initial_state(cfg)
    seen: Set[ModelState] = {init}
    frontier = deque([(init, 0)])
    result = CheckResult(ok=True, states_explored=0, transitions=0)

    while frontier:
        state, depth = frontier.popleft()
        result.states_explored += 1
        result.max_depth = max(result.max_depth, depth)
        if result.states_explored > max_states:
            raise RuntimeError(f"state space exceeds {max_states} states")
        try:
            check_invariants(state, cfg)
            nexts = successors(state, cfg)
        except InvariantViolation as violation:
            result.ok = False
            result.violation = violation
            return result
        if not nexts:
            if not _is_expected_terminal(state, cfg):
                result.deadlocks.append(state)
            continue
        for nxt in nexts:
            result.transitions += 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, depth + 1))
    return result


def _is_expected_terminal(state: ModelState, cfg: ModelConfig) -> bool:
    """All packets generated and drained, pktgen finished."""
    pc = state.d("pc")
    if pc.get("pktgen") != "Done":
        return False
    return all(count == 0 for count in state.d("pkt_queue").values())


def liveness_probe(cfg: Optional[ModelConfig] = None) -> bool:
    """A weak liveness check: some reachable state has every packet drained.

    (The TLA+ spec states a leads-to property; full LTL checking is out of
    scope, but reachability of the drained state plus deadlock-freedom of
    the BFS gives the same practical assurance at these model sizes.)
    """
    cfg = cfg or ModelConfig()
    set_lease_period(cfg.lease_period)
    init = initial_state(cfg)
    seen: Set[ModelState] = {init}
    frontier = deque([init])
    while frontier:
        state = frontier.popleft()
        pc = state.d("pc")
        if pc.get("pktgen") == "Done" and all(
            c == 0 for c in state.d("pkt_queue").values()
        ):
            return True
        for nxt in successors(state, cfg):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False
