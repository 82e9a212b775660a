"""Retransmission backoff: geometric growth, the cap, and telemetry.

§5.2's reliability layer resends unacknowledged request copies on a
timeout that doubles per resend (``RETRANSMIT_BACKOFF``) up to
``RETRANSMIT_TIMEOUT_MAX_US``, so a request stranded behind a long
outage cannot generate an unbounded duplicate storm. These tests drive
the ``partitioned_store_head`` campaign (a 150ms egress blackhole — far
longer than the cap-reaching backoff ladder) and check the ladder from
the RETRANSMIT trace stream, then check the quiet path and the
``redplane.resends_per_request`` histogram both ways.
"""

import pytest

from repro.chaos.campaigns import CAMPAIGNS
from repro.chaos.runner import run_campaign_result
from repro.core.engine import RedPlaneConfig
from repro.net import constants
from repro.net.simulator import Simulator
from repro.shard.scenarios import get_scenario
from repro.telemetry import schema, trace
from repro.telemetry.metrics import Histogram
from repro.telemetry.trace import read_jsonl

_CONFIG = RedPlaneConfig()


@pytest.fixture(scope="module")
def partitioned(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("backoff") / "trace.jsonl")
    result = run_campaign_result(
        CAMPAIGNS["partitioned_store_head"], seed=11, trace_path=path)
    return result, read_jsonl(path)


def _resend_chains(records):
    """Reconstruct resend ladders by following parent -> uid links.

    Every RETRANSMIT record names the copy it supersedes (``parent``)
    and the fresh copy it sent (``uid``), so each ladder is a linked
    list rooted at an original request uid.
    """
    by_parent = {}
    children = set()
    for rec in records:
        if rec.type != trace.RETRANSMIT:
            continue
        by_parent[rec.fields["parent"]] = rec
        children.add(rec.fields["uid"])
    chains = []
    for parent, rec in by_parent.items():
        if parent in children:
            continue  # not a ladder root
        chain = []
        while rec is not None:
            chain.append(rec)
            rec = by_parent.get(rec.fields["uid"])
        chains.append(chain)
    return chains


def test_campaign_produces_resend_ladders(partitioned):
    result, records = partitioned
    chains = _resend_chains(records)
    assert chains, "150ms blackhole produced no retransmissions"
    total = sum(len(c) for c in chains)
    assert total == int(result.metrics.total("redplane.retransmissions"))


def test_backoff_is_geometric_and_capped(partitioned):
    _result, records = partitioned
    chains = _resend_chains(records)
    for chain in chains:
        timeouts = [rec.fields["timeout_us"] for rec in chain]
        # The first expiry fires at the configured base timeout...
        assert timeouts[0] == pytest.approx(_CONFIG.retransmit_timeout_us)
        # ...and each later one at exactly min(prev * backoff, cap).
        for prev, cur in zip(timeouts, timeouts[1:]):
            expected = min(prev * constants.RETRANSMIT_BACKOFF,
                           constants.RETRANSMIT_TIMEOUT_MAX_US)
            assert cur == pytest.approx(expected)
        assert max(timeouts) <= constants.RETRANSMIT_TIMEOUT_MAX_US


def test_long_outage_reaches_the_cap(partitioned):
    _result, records = partitioned
    chains = _resend_chains(records)
    capped = [
        c for c in chains
        if any(r.fields["timeout_us"] == constants.RETRANSMIT_TIMEOUT_MAX_US
               for r in c)
    ]
    # 48us doubling reaches the 5ms cap within ~10ms; the outage is 150ms.
    assert capped, "no ladder reached RETRANSMIT_TIMEOUT_MAX_US"


def test_resends_histogram_counts_acknowledged_requests(partitioned):
    result, _records = partitioned
    resend_count = 0
    resend_max = 0.0
    for inst in result.metrics.instruments("redplane.resends_per_request"):
        assert isinstance(inst, Histogram)
        resend_count += inst.count
        if inst.count:
            resend_max = max(resend_max, inst.summary()["max"])
    ack_count = sum(
        inst.count
        for inst in result.metrics.instruments("redplane.ack_rtt_us"))
    # One observation per released request copy, same event as the RTT.
    assert resend_count == ack_count > 0
    assert resend_max >= 1.0, "a healed outage must show resent requests"


def test_resends_histogram_quiet_without_faults():
    sim = Simulator(seed=5)
    get_scenario("nat_steady").fn(sim, lambda until: sim.run(until=until))
    count = 0
    for inst in sim.metrics.instruments("redplane.resends_per_request"):
        assert isinstance(inst, Histogram)
        count += inst.count
        if inst.count:
            assert inst.summary()["max"] == 0.0
    assert count > 0
    assert sim.metrics.total("redplane.retransmissions") == 0


def test_schema_declares_resends_histogram():
    spec = next(s for s in schema.METRICS
                if s.name == "redplane.resends_per_request")
    assert spec.kind == "histogram"
    assert spec.labels == frozenset({"switch"})
    # Declared before the redplane.* counter wildcard, or the verifier
    # would judge the histogram against the wrong kind.
    names = [s.name for s in schema.METRICS]
    assert (names.index("redplane.resends_per_request")
            < names.index("redplane.*"))


def test_base_timeout_is_far_below_the_packet_gap():
    # The protocol's loss-recovery latency hides inside the inter-packet
    # gap of every campaign workload: a dropped write is resent and
    # acknowledged before the flow's next packet, so drops never reorder.
    assert constants.RETRANSMIT_TIMEOUT_US == _CONFIG.retransmit_timeout_us
    assert _CONFIG.retransmit_timeout_us < 1_000.0
