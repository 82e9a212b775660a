"""The A/A test: the same checkout measured in interleaved sets must agree.

Run ``i`` of every set uses seed ``base + i``, the sets alternate workload
by workload, and per workload the sets' medians must agree within limits
that are tighter than the regression bounds in ``BENCHMARK.json`` — which
shows the bounds are wider than the noise. The quartile spread of each set
(the driver's steadiness rule) is printed beside the gaps.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Any, Dict, List

from bench import estimator
from bench.harness import run_child
from bench.metrics import END_TO_END

#: Largest allowed gap between two sets' medians, as a share of the first:
#: half the regression bound for the timings, 2 % for memory; 0.0 means the
#: values must be exactly equal.
LIMITS: Dict[str, float] = {
    "pkts_per_s": 0.125,
    "setup_s": 0.125,
    "peak_rss_mb": 0.02,
    "events_per_pkt": 0.0,
}


def compare(sets: List[List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """Per metric: each set's median and spread, the widest median gap
    between any two sets, and whether it is within its limit."""
    rows = []
    for name, _unit, _better, bound in END_TO_END:
        medians, spreads = [], []
        for runs in sets:
            values = [r["metrics"][name]["value"] for r in runs]
            medians.append(statistics.median(values))
            spreads.append(estimator.spread(values))
        gap = (max(medians) - min(medians)) / medians[0]
        rows.append({"metric": name, "medians": medians, "spreads": spreads,
                     "gap": gap, "limit": LIMITS[name], "bound": bound,
                     "ok": gap <= LIMITS[name]})
    failed = [sum(r["failed"] for r in runs) for runs in sets]
    rows.append({"metric": "ops_failed", "medians": failed, "spreads": [],
                 "gap": float(max(failed) - min(failed)), "limit": 0.0,
                 "bound": 0.0, "ok": max(failed) == min(failed)})
    return rows


def selfcheck(names: List[str], sets: int, runs: int, seed: int, scale: float,
              reps: int, seconds: float, out_dir: str = "") -> int:
    ok = True
    for name in names:
        results: List[List[Dict[str, Any]]] = [[] for _ in range(sets)]
        for i in range(runs):
            for s in range(sets):
                result = run_child(name, seed + i, scale, reps, seconds, False)
                if not result["correct"]:
                    print(f"{name}: set {s} run {i} incorrect: "
                          f"{result.get('problem') or result.get('checks')}")
                    return 1
                results[s].append(result)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, f"{name}.selfcheck.json"), "w") as fh:
                json.dump(results, fh)
        print(f"== {name}: {sets} sets x {runs} runs ==", flush=True)
        for row in compare(results):
            medians = " ".join(f"{m:.6g}" for m in row["medians"])
            spreads = " ".join(f"{100 * s:.2f}%" for s in row["spreads"])
            print(f"  {row['metric']:<16} medians {medians}  gap "
                  f"{100 * row['gap']:.2f}% (limit {100 * row['limit']:.1f}%, "
                  f"bound {100 * row['bound']:.1f}%)  spreads {spreads}  "
                  f"{'ok' if row['ok'] else 'FAIL'}")
            ok = ok and row["ok"]
        noisy = sum(r["diagnostics"]["noisy"] for runs_ in results for r in runs_)
        print(f"  runs flagged noisy: {noisy} of {sets * runs}", flush=True)
    print("selfcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1
