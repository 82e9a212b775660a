"""Tests of the benchmark itself: ``python -m pytest bench/tests -q``.

Not part of tier-1 (``testpaths = ["tests"]``): they time nothing that a
tier-1 test covers and they spawn the six workloads as child processes.
"""

from bench import require_repro

require_repro()
