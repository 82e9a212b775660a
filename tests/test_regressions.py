"""Replay every committed chaos-fuzz reproducer in tests/regressions/.

The corpus carries two kinds of files (see tests/regressions/README.md):
mutation-tagged reproducers that must still violate when their seeded
bug is re-enabled, and mutation-free reproducers of fixed real-protocol
bugs that must now replay clean. Both directions are regression tests:
the first pins the fuzzer's detection power, the second pins the fix.
"""

import glob
import json
import os

import pytest

from repro.chaos.campaigns import Campaign
from repro.chaos.fuzz import replay_regression
from repro.mutation import MUTATIONS

_DIR = os.path.join(os.path.dirname(__file__), "regressions")
_FILES = sorted(glob.glob(os.path.join(_DIR, "*.json")))


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_is_not_empty():
    assert _FILES, "tests/regressions/ holds no reproducers"


@pytest.mark.parametrize(
    "path", _FILES, ids=[os.path.basename(p) for p in _FILES])
def test_payload_is_well_formed(path):
    payload = _load(path)
    assert payload["kind"] == "chaos-fuzz-regression"
    assert payload["schema"] == 1
    mutation = payload["fuzzer"]["mutation"]
    assert mutation is None or mutation in MUTATIONS
    spec = Campaign.from_dict(payload["spec"])
    # Reproducers are committed post-shrink: small enough to read.
    assert len(spec.faults) <= 3
    assert payload["witness"]["kinds"]


@pytest.mark.parametrize(
    "path", _FILES, ids=[os.path.basename(p) for p in _FILES])
def test_replay_matches_expectation(path):
    payload = _load(path)
    outcome = replay_regression(payload)
    if payload["fuzzer"]["mutation"]:
        assert outcome["reproduces"], (
            f"{os.path.basename(path)}: the seeded bug no longer "
            f"reproduces its witness {payload['witness']['kinds']} — the "
            "fuzzer would not find this bug class anymore")
    else:
        assert not outcome["reproduces"], (
            f"{os.path.basename(path)}: a fixed real-protocol bug "
            f"reproduces again (witness {outcome['witness']['kinds']})")
