"""Deterministic chaos engine: seeded fault-injection campaigns with
always-on invariant auditing and linearizability checking.

Gray failures (corruption, duplication, jitter, asymmetric partitions,
degraded bandwidth), store crashes with mid-propagation chain repair,
and lease-expiry races — written as data (one :class:`Campaign` type:
run parameters plus a fault tuple) whose verdict reports are
byte-identical across same-seed runs, plus a seeded fault-schedule
fuzzer (:mod:`repro.chaos.fuzz`) that generates campaigns of the same
type, shrinks every violation to a minimal reproducer
(:mod:`repro.chaos.shrink`), and pools a per-fault-class resilience
scorecard (:mod:`repro.chaos.scorecard`).

Run from the CLI: ``python -m repro.tools chaos <campaign>`` or
``python -m repro.tools fuzz run --seed 1 --budget 20``
(:mod:`repro.chaos.cli` declares both).
"""

from repro.chaos.campaigns import CAMPAIGNS, Campaign
from repro.chaos.fuzz import (
    generate_spec,
    mutation_self_check,
    replay_regression,
    run_fuzz,
    run_spec,
)
from repro.chaos.runner import (
    RunResult,
    render_report,
    run_campaign,
    run_campaign_result,
    verdict_json,
)
from repro.chaos.scorecard import Scorecard
from repro.chaos.shrink import ShrinkResult, shrink_spec
from repro.chaos.workload import CounterWorkload, EchoCounterApp

__all__ = [
    "CAMPAIGNS",
    "Campaign",
    "CounterWorkload",
    "EchoCounterApp",
    "RunResult",
    "Scorecard",
    "ShrinkResult",
    "generate_spec",
    "mutation_self_check",
    "render_report",
    "replay_regression",
    "run_campaign",
    "run_campaign_result",
    "run_fuzz",
    "run_spec",
    "shrink_spec",
    "verdict_json",
]
