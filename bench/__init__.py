"""The repository's benchmark: six workloads, best-of-K, outside-in trace.

``python -m bench run`` measures the end-to-end metrics, ``python -m bench
trace`` the per-layer ones, ``python -m bench selfcheck`` is the A/A test.
Everything here drives ``repro`` through its public entry points; nothing
under ``src/`` knows this package exists. See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys

#: The checkout root (the directory holding ``bench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def require_repro() -> None:
    """Put ``src/`` on ``sys.path``; exit non-zero when it is not there.

    The benchmark measures the program in *this* checkout. A directory
    that holds the benchmark without the program is a failed run, never
    a fallback to some other installed ``repro``.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"bench: no program to measure: {SRC}/repro is missing\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
