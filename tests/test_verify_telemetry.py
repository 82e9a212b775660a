"""Tests for the telemetry-schema lint (repro.verify pass 3, RT3xx rules)."""

import ast
import os

import pytest

from repro.telemetry import schema
from repro.verify import astutil
from repro.verify.diagnostics import Report
from repro.verify.determinism_pass import _lint_files, verify_tree


def lint(tmp_path, *sources):
    paths = []
    for i, source in enumerate(sources):
        path = tmp_path / f"fixture_{i}.py"
        path.write_text(source)
        paths.append(str(path))
    return verify_tree(paths)


def rules_and_lines(report):
    return sorted((d.rule, d.line) for d in report.diagnostics)


#: A minimal closer so PACKET_SEND fixtures don't also trip RT310.
CLOSE_SEND = (
    "tracer.emit('packet.deliver', link='l0', dir='fwd', node='h1', uid=1)\n"
)


# -- trace emits --------------------------------------------------------------


def test_unknown_trace_type_is_rt301(tmp_path):
    report = lint(tmp_path, (
        "tracer.emit('packet.teleport', uid=1)\n"
    ))
    assert rules_and_lines(report) == [("RT301", 1)]


#: Each way the tree imports the trace vocabulary and reaches ``emit``:
#: a one-line header, then the callee and the ``SNAPSHOT`` expression.
EMIT_FORMS = (
    ("import repro.telemetry.trace as tt", "tracer.emit", "tt.SNAPSHOT"),
    ("from repro.telemetry import trace as tt", "tracer.emit", "tt.SNAPSHOT"),
    ("from repro.telemetry.trace import SNAPSHOT", "tracer.emit", "SNAPSHOT"),
    ("from repro.telemetry import trace as tt; emit = sim.tracer.emit",
     "emit", "tt.SNAPSHOT"),
)


def lint_each_form(tmp_path, body):
    """Lint ``body`` (``{emit}``/``{snapshot}`` placeholders) once per
    :data:`EMIT_FORMS` entry, each in its own directory."""
    for i, (header, emit, snapshot) in enumerate(EMIT_FORMS):
        form_dir = tmp_path / f"form{i}"
        form_dir.mkdir()
        yield header, lint(form_dir, header + "\n" + body.format(
            emit=emit, snapshot=snapshot))


def test_missing_required_field_is_rt302(tmp_path):
    for header, report in lint_each_form(
            tmp_path, "{emit}({snapshot}, switch='sw', slot=0)\n"):
        assert rules_and_lines(report) == [("RT302", 2)], header
        assert "epoch" in report.diagnostics[0].message


def test_undeclared_field_is_rt302(tmp_path):
    for header, report in lint_each_form(
            tmp_path,
            "{emit}({snapshot}, switch='sw', slot=0, epoch=1, color='red')\n"):
        assert rules_and_lines(report) == [("RT302", 2)], header
        assert "color" in report.diagnostics[0].message


def test_spread_emit_skips_field_check(tmp_path):
    report = lint(tmp_path, (
        "import repro.telemetry.trace as tt\n"
        "fields = build()\n"
        "tracer.emit(tt.SNAPSHOT, **fields)\n"
    ))
    assert report.diagnostics == []


def test_declared_emit_is_clean(tmp_path):
    report = lint(tmp_path, (
        "import repro.telemetry.trace as tt\n"
        "tracer.emit(tt.PACKET_SEND, link='l0', dir='fwd', bytes=64,\n"
        "            uid=1, kind='data', flow='f')\n"
        + CLOSE_SEND
    ))
    assert report.diagnostics == []


# -- row sites ----------------------------------------------------------------


def test_undeclared_key_on_a_row_site_is_rt302(tmp_path):
    for header, report in lint_each_form(
            tmp_path,
            "{emit}({snapshot}, ('switch', 'slot', 'epoch', 'color'),\n"
            "       ('sw', 0, 1, 'red'))\n"):
        assert rules_and_lines(report) == [("RT302", 2)], header
        assert "color" in report.diagnostics[0].message


@pytest.mark.parametrize("row", [
    "KEYS, ('sw', 0, 1)",                            # a name, not a literal
    "('switch', 'slot', name), ('sw', 0, 1)",        # a non-string key
    "('switch', 'slot', 'epoch'), ('sw', 0)",        # one value short
    "('switch', 'slot'), ('sw', 0), epoch=1",        # a keyword beside it
    "('switch', 'slot', 'epoch')",                   # no values
])
def test_row_keys_not_a_literal_tuple_is_rt307(tmp_path, row):
    report = lint(tmp_path, (
        "import repro.telemetry.trace as tt\n"
        f"tracer.emit(tt.SNAPSHOT, {row})\n"
    ))
    assert rules_and_lines(report) == [("RT307", 2)]


def test_declared_row_is_clean(tmp_path):
    report = lint(tmp_path, (
        "import repro.telemetry.trace as tt\n"
        "tracer.emit(tt.PACKET_SEND,\n"
        "            ('link', 'dir', 'bytes', 'uid', 'kind', 'flow'),\n"
        "            ('l0', 'fwd', 64, 1, 'data', flow))\n"
        "tracer.emit(tt.PACKET_DELIVER, ('link', 'dir', 'node', 'uid'),\n"
        "            values)\n"
    ))
    assert report.diagnostics == []


# -- metric instruments -------------------------------------------------------


def test_undeclared_metric_is_rt304(tmp_path):
    report = lint(tmp_path, (
        "c = sim.metrics.counter('switch.mystery_total', switch='sw')\n"
    ))
    assert rules_and_lines(report) == [("RT304", 1)]


def test_label_mismatch_is_rt305(tmp_path):
    report = lint(tmp_path, (
        "c = metrics.counter('link.tx_bytes', link='l0')\n"
    ))
    assert rules_and_lines(report) == [("RT305", 1)]
    assert "dir" in report.diagnostics[0].message


def test_kind_mismatch_is_rt306(tmp_path):
    report = lint(tmp_path, (
        "g = metrics.gauge('link.tx_bytes', link='l0', dir='fwd')\n"
    ))
    assert rules_and_lines(report) == [("RT306", 1)]


def test_unbounded_label_is_rt303(tmp_path):
    report = lint(tmp_path, (
        "c = metrics.counter('switch.pkts_processed', switch='sw', uid=7)\n"
    ))
    rules = [d.rule for d in report.diagnostics]
    assert "RT303" in rules
    assert "uid" in next(
        d.message for d in report.diagnostics if d.rule == "RT303"
    )


def test_wildcard_metric_and_fstring_name_are_clean(tmp_path):
    report = lint(tmp_path, (
        "g = metrics.gauge(f'redplane.resource.{key}', switch='sw')\n"
        "c = registry.counter('store.puts', node='n0')\n"
    ))
    assert report.diagnostics == []


# -- RT310: span pairing across the file set ----------------------------------


def test_unpaired_span_opener_is_rt310(tmp_path):
    report = lint(tmp_path, (
        "import repro.telemetry.trace as tt\n"
        "tracer.emit(tt.PACKET_SEND, link='l0', dir='fwd', bytes=64,\n"
        "            uid=1, kind='data')\n"
    ))
    assert rules_and_lines(report) == [("RT310", 2)]
    assert "packet.send" in report.diagnostics[0].message


def test_closer_in_another_file_pairs_the_span(tmp_path):
    report = lint(
        tmp_path,
        (
            "import repro.telemetry.trace as tt\n"
            "tracer.emit(tt.RP_REQUEST, switch='sw', kind='write',\n"
            "            flow='f', seq=0, uid=1)\n"
        ),
        (
            "import repro.telemetry.trace as tt\n"
            "tracer.emit(tt.RP_ACK, switch='sw', kind='write', flow='f',\n"
            "            seq=0, uid=2, req_uid=1, rtt_us=10.0)\n"
        ),
    )
    assert report.diagnostics == []


# -- the tree itself ----------------------------------------------------------


def _tracer_emit_sites(sf):
    """Lines calling ``<...>.tracer.emit`` directly or through a local
    name bound to it: found without the lint, to check the lint."""
    bound = {
        node.targets[0].id for node in ast.walk(sf.tree)
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and (astutil.attr_chain(node.value) or [])[-2:] == ["tracer", "emit"]
    }
    return {
        node.lineno for node in ast.walk(sf.tree)
        if isinstance(node, ast.Call) and (
            (astutil.attr_chain(node.func) or [])[-2:] == ["tracer", "emit"]
            or isinstance(node.func, ast.Name) and node.func.id in bound)
    }


def test_repro_source_tree_matches_schema():
    src = os.path.normpath(
        os.path.join(os.path.dirname(__file__), "..", "src", "repro"))
    report = verify_tree([src])
    assert report.diagnostics == [], "\n".join(
        d.render() for d in report.diagnostics)
    # The lint saw every tracer.emit site, and the sites it resolved emit
    # exactly the declared vocabulary: no type without a producer.
    lints = [lint for lint in _lint_files(
        [src], Report(), None) if lint.telemetry]
    for lint in lints:
        resolved = {line for _type, line in lint.telemetry.emits}
        assert _tracer_emit_sites(lint.sf) <= resolved, lint.rel
    emitted = {type_ for lint in lints
               for type_, _line in lint.telemetry.emits}
    assert emitted == set(schema.TRACE_EVENTS)
