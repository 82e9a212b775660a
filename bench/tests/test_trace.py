"""The tracer: self times telescope, observation is passive, and every
wrapper is gone when the traced run ends."""

import importlib
import json
import sys

from bench.trace import CLASS_TARGETS, FUNCTION_TARGETS, LAYERS, LayerTracer
from bench.workloads import WORKLOADS


def _raw_members():
    """Identity snapshot of everything the tracer may replace."""
    members = {}
    for module, cls_name, _layer, methods, _sub in CLASS_TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            name = method[0] if isinstance(method, tuple) else method
            members[(module, cls_name, name)] = cls.__dict__[name]
    for module, fn_name, _layer in FUNCTION_TARGETS:
        target = getattr(importlib.import_module(module), fn_name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.startswith("repro"):
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        members[(mod_name, attr)] = value
    return members


def _nat_200(tracer=None):
    workload = WORKLOADS["nat_steady_ref"]
    inputs = workload.inputs(seed=5, scale=0.008)  # 50 flows x 4 packets
    assert len(inputs.injections) == 200
    built = workload.build(inputs)
    if tracer is None:
        return built.finish(built.run(lambda: None))
    with tracer.region(workload.root_layer):
        ret = built.run(lambda: None)
    return built.finish(ret)


def test_self_times_sum_to_the_traced_wall_and_the_run_is_unchanged(tmp_path):
    plain = _nat_200()
    tracer = LayerTracer(sample_every=16)
    tracer.install()
    try:
        traced = _nat_200(tracer)
    finally:
        tracer.uninstall()
    region_s = tracer.region_ns / 1e9
    assert abs(tracer.self_sum_s() - region_s) <= 0.01 * region_s
    assert set(tracer.layers) == set(LAYERS)
    # Passive: same events, same trace ring, same metrics.
    assert traced.digest == plain.digest
    assert traced.delivered == plain.delivered == 200
    # Counts are taken where the work happens.
    assert tracer.calls("switch.asic", "SwitchASIC.process") >= 200
    assert tracer.calls("net.links", "Link.transmit") > 0
    assert tracer.calls("telemetry.trace", "Tracer.emit") == \
        traced.digest["records_emitted"]
    assert tracer.schedules_by_layer["net.links"] == \
        tracer.calls("net.links", "Link.transmit")

    rows_path = tmp_path / "spans.jsonl"
    assert tracer.write_rows(str(rows_path)) == len(tracer.rows) > 1
    rows = [json.loads(line) for line in rows_path.read_text().splitlines()]
    by_span = {row["span"]: row for row in rows}
    assert by_span[0]["op"] == "region" and by_span[0]["parent"] is None
    for row in rows:
        if row["span"] == 0:
            continue
        assert row["id"] % 16 == 0 and row["end_ns"] >= row["start_ns"]
        parent = by_span.get(row["parent"])
        if parent is not None and parent["span"] != 0:
            # A child lies inside its parent and works for the same packet.
            assert parent["start_ns"] <= row["start_ns"]
            assert row["end_ns"] <= parent["end_ns"]
            assert parent["id"] == row["id"]


def test_wrappers_are_fully_removed():
    from repro.chaos import fuzz
    from repro.net.links import Link

    before = _raw_members()
    transmit, run_campaign = Link.__dict__["transmit"], fuzz.run_campaign_result
    tracer = LayerTracer()
    tracer.install()
    # In place in between: on the class, and in a namespace that imported
    # the function by name.
    assert Link.__dict__["transmit"] is not transmit
    assert Link.__dict__["transmit"].__wrapped__ is transmit
    assert fuzz.run_campaign_result is not run_campaign
    tracer.uninstall()
    after = _raw_members()
    assert set(after) == set(before)
    assert all(after[key] is before[key] for key in before)
    assert fuzz.run_campaign_result is run_campaign


def test_installed_but_inactive_wrappers_record_nothing():
    tracer = LayerTracer()
    tracer.install()
    try:
        _nat_200()  # no region entered
    finally:
        tracer.uninstall()
    assert tracer.self_sum_s() == 0.0 and not tracer.rows
