"""Latency attribution: exact decomposition of measured ack RTTs."""

import pytest

from repro.analysis.attribution import (
    attribute_acks,
    flow_table,
    render_table,
    verify_sums,
)
from repro.chaos import run_campaign
from repro.telemetry.metrics import Histogram
from repro.telemetry.trace import read_jsonl
from repro.tools.demo import quickstart_run


@pytest.fixture(scope="module")
def quickstart():
    return quickstart_run(seed=7, packets=10)


def test_components_sum_to_measured_rtt(quickstart):
    _sim, records = quickstart
    breakdowns = attribute_acks(records)
    # 20 writes plus the two lease grants (initial and migration).
    assert len(breakdowns) == 22
    assert verify_sums(breakdowns, tolerance_us=1.0) is None


def test_exact_acks_have_no_residual(quickstart):
    _sim, records = quickstart
    breakdowns = attribute_acks(records)
    exact = [b for b in breakdowns if b.exact]
    assert exact, "no ack resolved its full causal path"
    for b in exact:
        assert b.cause_uid == b.req_uid
        assert abs(b.retransmit_wait_us) < 1.0


def test_breakdowns_match_ack_rtt_histogram(quickstart):
    sim, records = quickstart
    breakdowns = attribute_acks(records)
    hist_count = 0
    hist_sum = 0.0
    for inst in sim.metrics.instruments("redplane.ack_rtt_us"):
        assert isinstance(inst, Histogram)
        hist_count += inst.count
        hist_sum += inst.sum
    assert len(breakdowns) == hist_count
    assert sum(b.rtt_us for b in breakdowns) == pytest.approx(hist_sum)


def test_chain_component_present_for_replicated_store(quickstart):
    _sim, records = quickstart
    breakdowns = attribute_acks(records)
    # The paper testbed replicates through a store chain, so resolved
    # acks must attribute some propagation time to it.
    assert any(b.chain_us > 0.0 for b in breakdowns if b.exact)


def test_flow_table_aggregates_and_renders(quickstart):
    _sim, records = quickstart
    rows = flow_table(attribute_acks(records))
    assert rows
    for row in rows:
        components = (row["pipeline_us"] + row["wire_us"] + row["store_us"]
                      + row["chain_us"] + row["retransmit_wait_us"])
        assert components == pytest.approx(row["rtt_total_us"])
    rendered = render_table(rows)
    assert rendered.splitlines()[0].startswith("flow")
    assert len(rendered.splitlines()) == len(rows) + 2


def test_attribution_table_byte_identical_across_same_seed_runs(tmp_path):
    tables = []
    for tag in ("a", "b"):
        path = str(tmp_path / f"{tag}.jsonl")
        run_campaign("flapping_link", seed=42, trace_path=path)
        tables.append(render_table(flow_table(attribute_acks(
            read_jsonl(path)))))
    assert tables[0] == tables[1]


def test_unresolvable_ack_degrades_gracefully():
    # An rp.ack with no matching wire events (ring truncation) must keep
    # the full RTT in the residual bucket instead of guessing.
    from repro.telemetry import trace as tt
    from repro.telemetry.trace import TraceRecord

    record = TraceRecord(50.0, tt.RP_ACK, {
        "switch": "s1", "kind": "write", "flow": "f", "seq": 3,
        "uid": 9, "req_uid": 7, "rtt_us": 12.5, "cause": 7,
    })
    (breakdown,) = attribute_acks([record])
    assert not breakdown.exact
    assert breakdown.retransmit_wait_us == 12.5
    assert breakdown.components_sum_us == pytest.approx(12.5)
