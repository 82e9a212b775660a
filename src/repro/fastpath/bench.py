"""The axis comparison ``python -m bench run`` imports for its
``nat_steady_fastpath`` identity checks.

:func:`identity_report` is the one name ``bench/workloads.py`` takes
from this module, and ``bench/`` is frozen between benchmark PRs; it
leaves with the flow cache. Everything else in ``src/`` compares runs
with :func:`repro.identity.compare`, and the flow-cache A/B itself is
the registry's ``nat_steady`` scenario (``repro.tools fastpath --diff``).
"""

from __future__ import annotations


def identity_report(reference: dict, candidate: dict) -> dict:
    """Compare two run fingerprints on the identity axes they carry."""
    return {
        "events": reference["events"] == candidate["events"],
        "records_emitted":
            reference["records_emitted"] == candidate["records_emitted"],
        "trace": reference["trace_digest"] == candidate["trace_digest"],
        "metrics": reference["metrics"] == candidate["metrics"],
    }
