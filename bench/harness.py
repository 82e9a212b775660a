"""The driver process: one fresh child per workload, bounded in time.

Workloads run one after another, each in its own interpreter, so they
cannot pollute each other's caches or memory high-water mark. The driver
itself only waits on a pipe, so at most ``nproc`` processes are ever busy
(the one workload that uses two is ``flow_churn_shard2``).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from typing import Any, Dict, List

from bench import ROOT, SRC

#: Scratch for everything the program writes through ``tempfile`` (WAL
#: directories of the chaos campaigns): inside the checkout, removed after.
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
#: A child is killed after ten times what a run is expected to take (every
#: workload is sized to 16-20 s a run on the sizing container).
TIME_LIMIT_S = 10 * 17.0


def run_child(workload: str, seed: int, scale: float, reps: int,
              seconds: float, trace: bool, out_dir: str = "",
              time_limit_s: float = TIME_LIMIT_S) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter and return its result.

    A child that exceeds its time limit, dies, or prints no result is
    reported as one failed operation (``correct`` false, no metrics);
    its whole process group is killed first, so a stalled shard worker
    never outlives the run.
    """
    argv = [sys.executable, "-m", "bench", "child",
            "--workload", workload, "--seed", str(seed),
            "--scale", repr(scale), "--reps", str(reps),
            "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    if out_dir:
        argv += ["--out", os.path.abspath(out_dir)]
    os.makedirs(TMP_DIR, exist_ok=True)
    # A pinned hash seed takes one per-process source of speed differences
    # (str-keyed dict layout) out of the comparison between runs.
    env = dict(os.environ, TMPDIR=TMP_DIR, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    problem = ""
    try:
        stdout, _ = proc.communicate(timeout=time_limit_s)
        if proc.returncode != 0:
            problem = f"child exited with code {proc.returncode}"
    except subprocess.TimeoutExpired:
        problem = f"killed after the {time_limit_s:.0f} s time limit"
        stdout = ""
    finally:
        _kill_group(proc)
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    if not problem:
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            problem = "child printed no result"
    return {"workload": workload, "seed": seed, "correct": False,
            "attempted": 1, "failed": 1, "metrics": {}, "problem": problem}


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def contract_line(result: Dict[str, Any]) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def render(result: Dict[str, Any]) -> str:
    """Every metric by name with its unit, plus the run's diagnostics."""
    lines = [f"== {result['workload']} (seed {result['seed']}) =="]
    if "problem" in result:
        lines.append(f"  FAILED: {result['problem']}")
        return "\n".join(lines)
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    lines.append(f"  {'ops_attempted':<36} {result['attempted']:>16d}")
    lines.append(f"  {'ops_failed':<36} {result['failed']:>16d}")
    diag = result.get("diagnostics", {})
    if "walls_s" in diag:
        walls = " ".join(f"{w:.3f}" for w in diag["walls_s"])
        lines.append(f"  repetitions ({result['reps']} timed): {walls} s")
        lines.append(
            f"  best of {diag['segments_per_rep']} segments "
            f"{diag['wall_best_s']:.3f} s, fastest repetition "
            f"{diag['wall_min_s']:.3f} s")
        lines.append(
            f"  wall median {diag['wall_median_s']:.3f} s, spread "
            f"{100 * diag['wall_spread']:.2f} %, "
            f"{'NOISY' if diag['noisy'] else 'steady'}; set-up min of "
            f"{diag['setup_samples']} (median {diag['setup_median_s']:.4f} s)")
    failed_checks = [c for c, ok in result.get("checks", {}).items() if not ok]
    lines.append("  checks: " + (
        "all pass" if not failed_checks else "FAILED " + ", ".join(failed_checks)))
    if "sim_digest" in result:
        lines.append("  sim_digest: " + json.dumps(result["sim_digest"],
                                                    sort_keys=True))
    return "\n".join(lines)


def run_workloads(names: List[str], seed: int, scale: float, reps: int,
                  seconds: float, trace: bool, out_dir: str = "") -> int:
    """Run the named workloads in turn; print each; return the exit code.

    The last line of standard output is the contract's JSON object when one
    workload ran, or one object keyed by workload name otherwise.
    """
    results = {}
    for name in names:
        result = run_child(name, seed, scale, reps, seconds, trace, out_dir)
        results[name] = result
        print(render(result), flush=True)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            kind = "trace" if trace else "run"
            with open(os.path.join(out_dir, f"{name}.{kind}.json"), "w") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)
                fh.write("\n")
    problems = [n for n, r in results.items() if "problem" in r]
    if problems:
        # No result line: a run that was killed or died measured nothing.
        sys.stderr.write(f"bench: no result for {', '.join(problems)}\n")
        return 1
    if len(names) == 1:
        print(contract_line(results[names[0]]))
    else:
        print(json.dumps({n: json.loads(contract_line(r))
                          for n, r in results.items()}))
    return 0
