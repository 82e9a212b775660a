"""Tests for the pipeline verifier (repro.verify pass 1, RP1xx rules)."""

import argparse
import inspect
import math

import pytest

from repro.net.packet import Packet
from repro.net.simulator import Simulator
from repro.switch.asic import SwitchASIC
from repro.switch.pipeline import (
    ControlBlock,
    PipelineContext,
    RegisterAccessError,
)
from repro.switch.registers import RegisterArray
from repro.verify import Severity
from repro.verify.pipeline_pass import verify_app, verify_asic
from repro.apps import BUILTIN_APPS
from repro.apps.heavy_hitter import HeavyHitterApp, sketch_hash
from repro.core.app import AppVerdict


def fresh_switch():
    return SwitchASIC(Simulator(seed=0), "sw", ip=1)


def run_pass(switch):
    return verify_asic(switch)


def line_of(obj, needle):
    """Absolute line number of the first source line containing needle."""
    lines, start = inspect.getsourcelines(obj)
    for offset, text in enumerate(lines):
        if needle in text:
            return start + offset
    raise AssertionError(f"{needle!r} not found in {obj}")


# -- fixture blocks -----------------------------------------------------------


class GoodBlock(ControlBlock):
    name = "good"

    def __init__(self):
        self.reg = RegisterArray("good.reg", 16, 32)

    def process(self, ctx, switch):
        if ctx.pkt.l4 is None:
            return True
        self.reg.access(ctx, 0, lambda lo, hi: (lo + 1, hi))
        return True

    def resource_usage(self):
        return {"sram_bits": self.reg.sram_bits(), "meter_alus": 1}


class DoubleAccessBlock(ControlBlock):
    name = "double-access"

    def __init__(self):
        self.reg = RegisterArray("double.reg", 16, 32)

    def process(self, ctx, switch):
        value = self.reg.read(ctx, 0)  # first access
        if value > 3:
            self.reg.write(ctx, 1, value)  # second access, same packet
        return True

    def resource_usage(self):
        return {"sram_bits": self.reg.sram_bits(), "meter_alus": 2}


class OffPathFirstAccessBlock(ControlBlock):
    """One read on a branch that returns, a read and a write after it:
    only the fall-through accesses the array twice."""

    name = "off-path-first"

    def __init__(self):
        self.reg = RegisterArray("offpath.reg", 16, 32)

    def process(self, ctx, switch):
        if ctx.pkt.l4 is None:
            self.reg.read(ctx, 0)  # the branch's only access
            return True
        value = self.reg.read(ctx, 0)  # first access on the counted path
        self.reg.write(ctx, 1, value)
        return True

    def resource_usage(self):
        return {"sram_bits": self.reg.sram_bits(), "meter_alus": 2}


class SumBlock(ControlBlock):
    """Both accesses inside one expression."""

    name = "sum"

    def __init__(self):
        self.reg = RegisterArray("sum.reg", 16, 32)

    def process(self, ctx, switch):
        total = self.reg.read(ctx, 0) + self.reg.read(ctx, 1)  # first access
        return total > 0

    def resource_usage(self):
        return {"sram_bits": self.reg.sram_bits(), "meter_alus": 2}


class CompareFirstBlock(ControlBlock):
    """The first access inside an ``if`` test, the second a statement."""

    name = "compare-first"

    def __init__(self):
        self.reg = RegisterArray("compare.reg", 16, 32)

    def process(self, ctx, switch):
        if self.reg.read(ctx, 0) > 3:  # first access
            self.reg.write(ctx, 1, 0)
        return True

    def resource_usage(self):
        return {"sram_bits": self.reg.sram_bits(), "meter_alus": 2}


class SharedReader(ControlBlock):
    name = "shared-reader"

    def __init__(self, shared):
        self.shared = shared

    def process(self, ctx, switch):
        self.shared.read(ctx, 0)
        return True

    def resource_usage(self):
        return {"sram_bits": self.shared.sram_bits(), "meter_alus": 1}


class SharedWriter(ControlBlock):
    name = "shared-writer"

    def __init__(self, shared):
        self.shared = shared

    def process(self, ctx, switch):
        self.shared.write(ctx, 1, 7)
        return True

    def resource_usage(self):
        return {"meter_alus": 1}


class LoopBlock(ControlBlock):
    name = "loop-access"

    def __init__(self):
        self.reg = RegisterArray("loop.reg", 8, 32)

    def process(self, ctx, switch):
        for i in range(4):
            self.reg.access(ctx, i, lambda lo, hi: (lo, hi))  # per-packet loop
        return True

    def resource_usage(self):
        return {"sram_bits": self.reg.sram_bits(), "meter_alus": 1}


class RowsBlock(ControlBlock):
    """A loop over a *collection* of arrays: one access per member, legal."""

    name = "rows"

    def __init__(self, rows=3):
        self.rows = [RegisterArray(f"rows.{i}", 8, 32) for i in range(rows)]

    def process(self, ctx, switch):
        for row in self.rows:
            row.access(ctx, 0, lambda lo, hi: (lo + 1, hi))
        return True

    def resource_usage(self):
        return {
            "sram_bits": sum(r.sram_bits() for r in self.rows),
            "meter_alus": len(self.rows),
        }


class WideBlock(RowsBlock):
    """Enough parallel arrays to blow the 12-stage x 4-ALU budget."""

    name = "wide"

    def __init__(self):
        super().__init__(rows=60)


class HugeBlock(ControlBlock):
    name = "huge"

    def __init__(self):
        self.reg = RegisterArray("huge.reg", 6_000_000, 32)  # ~192 Mbit

    def process(self, ctx, switch):
        self.reg.read(ctx, 0)
        return True

    def resource_usage(self):
        return {"sram_bits": self.reg.sram_bits()}


class UnderDeclaredBlock(ControlBlock):
    name = "under-declared"

    def __init__(self):
        self.reg = RegisterArray("under.reg", 1024, 32)

    def process(self, ctx, switch):
        self.reg.read(ctx, 0)
        return True

    def resource_usage(self):
        return {"sram_bits": 64, "meter_alus": 1}  # reg is 32768 bits


def touch(reg, ctx):
    reg.read(ctx, 0)


class FreeFunctionBlock(ControlBlock):
    """Hands the packet context to a free function the verifier cannot
    follow, so the accesses inside it are out of its sight."""

    name = "free-function"

    def __init__(self):
        self.reg = RegisterArray("free.reg", 4, 32)

    def process(self, ctx, switch):
        touch(self.reg, ctx)  # ctx leaves the analysis
        return True

    def resource_usage(self):
        return {"sram_bits": self.reg.sram_bits(), "meter_alus": 1}


class LeakyHandlerBlock(ControlBlock):
    """Owns a mirror session whose handler never releases copies."""

    name = "leaky"

    def __init__(self, switch):
        self.session = switch.new_mirror_session(self.on_pass)

    def process(self, ctx, switch):
        self.session.mirror(ctx.pkt, None, ctx.now + 1.0)
        return True

    def on_pass(self, state):
        return math.inf  # never released: the copy holds its buffer forever

    def resource_usage(self):
        return {}


# -- RP101: single access per register array per packet -----------------------


def test_known_good_block_is_clean():
    sw = fresh_switch()
    sw.add_block(GoodBlock())
    report = run_pass(sw)
    assert report.diagnostics == []
    assert report.exit_code() == 0


def test_double_access_detected_with_exact_location():
    sw = fresh_switch()
    sw.add_block(DoubleAccessBlock())
    report = run_pass(sw)
    hits = report.by_rule("RP101")
    assert len(hits) == 1
    diag = hits[0]
    assert diag.severity is Severity.ERROR
    assert "double.reg" in diag.message
    # Cited at the array's first access site, in this file.
    assert diag.file.endswith("test_verify_pipeline.py")
    assert diag.line == line_of(DoubleAccessBlock.process, "# first access")
    assert "block=double-access" in diag.site
    assert report.exit_code() == 1


def test_double_access_is_cited_on_the_path_that_counts_two():
    sw = fresh_switch()
    sw.add_block(OffPathFirstAccessBlock())
    hits = run_pass(sw).by_rule("RP101")
    assert len(hits) == 1
    assert hits[0].line == line_of(
        OffPathFirstAccessBlock.process, "# first access on the counted path")
    assert "block=off-path-first" in hits[0].site


@pytest.mark.parametrize("block_type", [SumBlock, CompareFirstBlock])
def test_double_access_inside_an_expression_is_cited_at_the_first(
        block_type):
    """An access whose value feeds an operator or a comparison keeps its
    site, so RP101 still cites the path's first access."""
    sw = fresh_switch()
    sw.add_block(block_type())
    hits = run_pass(sw).by_rule("RP101")
    assert len(hits) == 1
    assert hits[0].line == line_of(block_type.process, "# first access")
    assert f"block={block_type.name}" in hits[0].site


def test_single_path_double_access_only_on_taken_path():
    # The analysis is path-sensitive: the verifier reports the *possible*
    # double access even though one branch is single-access.
    sw = fresh_switch()
    sw.add_block(DoubleAccessBlock())
    report = run_pass(sw)
    assert [d.rule for d in report.diagnostics] == ["RP101"]


def test_cross_block_double_access_detected():
    sw = fresh_switch()
    shared = RegisterArray("shared.reg", 4, 32)
    sw.add_block(SharedReader(shared))
    sw.add_block(SharedWriter(shared))
    report = run_pass(sw)
    hits = report.by_rule("RP101")
    assert len(hits) == 1
    assert "shared.reg" in hits[0].message


def test_static_and_runtime_cite_the_same_site_format():
    # Satellite: RegisterAccessError carries block=<name> exactly like the
    # RP101 diagnostic's site field.
    sw = fresh_switch()
    block = DoubleAccessBlock()
    sw.add_block(block)
    report = run_pass(sw)
    static_site = report.by_rule("RP101")[0].site  # "block=double-access pkt=*"

    block.reg.cp_write(0, 10)  # force the value > 3 branch
    ctx = PipelineContext(pkt=Packet(), now=0.0)
    with pytest.raises(RegisterAccessError) as err:
        sw.pipeline.run(ctx, sw)
    assert "block=double-access" in str(err.value)
    assert static_site.split(" pkt=")[0] in str(err.value)


class IndexedAfterLoopApp(HeavyHitterApp):
    """The heavy-hitter sketch, plus a second update of row 0 after the
    loop has updated every row."""

    def process(self, state, pkt, ctx, switch):
        rows = self.sketches[pkt.vlan]
        item = pkt.flow_key().pack()
        for row, array in enumerate(rows):
            array.update(ctx, sketch_hash(item, row, self.width), 1)
        rows[0].update(ctx, 0, 0)  # row 0 again
        return AppVerdict.FORWARD


def test_an_indexed_member_after_a_loop_over_its_collection_is_rp101():
    """A subscript selects one of the members a loop over the same
    collection touches, so the two accesses count together."""
    report = verify_app(lambda: IndexedAfterLoopApp(vlans=[10, 20]))
    hits = report.by_rule("RP101")
    assert sorted(d.message.split("'")[1] for d in hits) == [
        "hh.vlan10.row0.active[*]", "hh.vlan10.row0.data[*]",
        "hh.vlan10.row0.last_updated[*]",
    ]
    assert all("accessed 2x" in d.message for d in hits)


# -- RP102: per-packet loops --------------------------------------------------


def test_loop_access_detected():
    sw = fresh_switch()
    sw.add_block(LoopBlock())
    report = run_pass(sw)
    hits = report.by_rule("RP102")
    assert len(hits) == 1
    assert hits[0].line == line_of(LoopBlock.process, "# per-packet loop")


def test_loop_over_array_collection_is_legal():
    sw = fresh_switch()
    sw.add_block(RowsBlock())
    report = run_pass(sw)
    assert report.diagnostics == []


# -- RP103: the proof has a hole -----------------------------------------------


def test_ctx_passed_to_a_free_function_is_rp103():
    sw = fresh_switch()
    sw.add_block(FreeFunctionBlock())
    report = run_pass(sw)
    hits = report.by_rule("RP103")
    assert len(hits) == 1
    assert hits[0].severity is Severity.WARNING
    assert "free function 'touch'" in hits[0].message
    assert hits[0].line == line_of(FreeFunctionBlock.process, "# ctx leaves")
    assert "block=free-function" in hits[0].site


# -- RP105 / RP110: structure and stage budget --------------------------------


def test_duplicate_block_instance_detected():
    sw = fresh_switch()
    block = GoodBlock()
    sw.add_block(block)
    sw.pipeline.append(block)  # same instance again: a cycle
    report = run_pass(sw)
    assert [d.rule for d in report.by_rule("RP105")] == ["RP105"]


def test_stage_budget_overflow_detected():
    sw = fresh_switch()
    sw.add_block(WideBlock())  # 60 arrays / 4 ALUs = 15 stages > 12
    report = run_pass(sw)
    assert len(report.by_rule("RP110")) == 1
    assert "15 stages" in report.by_rule("RP110")[0].message


# -- RP12x: mirror sessions ---------------------------------------------------


class _ReleasingOwner:
    """Owns a session whose pass handler releases the copy it is handed."""

    def __init__(self, switch):
        self.session = switch.new_mirror_session(self.on_pass)

    def on_pass(self, copy):
        self.session.release(copy)
        return math.inf


def test_unwired_mirror_session_flagged():
    sw = fresh_switch()
    _ReleasingOwner(sw)  # its session is never mirrored to
    report = run_pass(sw)
    rules = sorted({d.rule for d in report.diagnostics})
    assert rules == ["RP122"]


def test_leaky_handler_flagged():
    sw = fresh_switch()
    sw.add_block(LeakyHandlerBlock(sw))
    report = run_pass(sw)
    hits = report.by_rule("RP123")
    assert len(hits) == 1
    assert hits[0].line == inspect.unwrap(
        LeakyHandlerBlock.on_pass
    ).__code__.co_firstlineno
    assert not report.by_rule("RP122")


# -- RP13x: resources ---------------------------------------------------------


def test_over_capacity_detected():
    sw = fresh_switch()
    sw.add_block(HugeBlock())
    report = run_pass(sw)
    hits = report.by_rule("RP130")
    assert len(hits) == 1
    assert "sram_bits" in hits[0].message


def test_under_declared_sram_detected():
    sw = fresh_switch()
    sw.add_block(UnderDeclaredBlock())
    report = run_pass(sw)
    hits = report.by_rule("RP132")
    assert len(hits) == 1
    assert "UnderDeclaredBlock" in hits[0].message


def test_ledger_out_of_sync_detected():
    sw = fresh_switch()
    sw.pipeline.append(GoodBlock())  # bypasses add_block's registration
    report = run_pass(sw)
    hits = report.by_rule("RP133")
    assert len(hits) == 1
    assert hits[0].severity is Severity.WARNING
    assert report.exit_code() == 0  # warning only
    assert report.exit_code(strict=True) == 1


# -- an app that does not deploy ----------------------------------------------


def test_an_app_that_does_not_deploy_is_one_line_and_exit_2(
        monkeypatch, capsys):
    """The resource ledger's KeyError is the only check on an unknown
    resource key: ``verify`` reports it as one line naming the app, not
    as a traceback."""
    from repro.apps.counter import SyncCounterApp
    from repro.verify import cli

    class MisdeclaredApp(SyncCounterApp):
        def resource_usage(self):
            return {**super().resource_usage(), "bogus_units": 1}

    monkeypatch.setitem(BUILTIN_APPS, "misdeclared", MisdeclaredApp)
    parser = argparse.ArgumentParser()
    cli.register(parser.add_subparsers())
    for argv in (["verify", "--app", "misdeclared"], ["verify", "--all"]):
        args = parser.parse_args(argv)
        assert args.run(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("app 'misdeclared' does not deploy: KeyError: "
                       "\"unknown resource 'bogus_units'\"\n")


def test_verify_all_deploys_each_program_once(monkeypatch, capsys):
    """One deployment per builtin app serves both passes 1 and 5."""
    import importlib

    from repro.verify import cli

    # ``repro.deploy`` the attribute is the function; patch the module.
    module = importlib.import_module("repro.deploy")
    calls = {"deploy": 0}
    real = module.deploy

    def counted(*args, **kwargs):
        calls["deploy"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "deploy", counted)
    parser = argparse.ArgumentParser()
    cli.register(parser.add_subparsers())
    args = parser.parse_args(["verify", "--all"])
    assert args.run(args) == 0
    capsys.readouterr()
    assert calls == {"deploy": len(BUILTIN_APPS)}
    assert len(BUILTIN_APPS) == 11


# -- the builtin applications (satellite: the RP132 sweep) --------------------


@pytest.mark.parametrize("name", sorted(BUILTIN_APPS))
def test_builtin_app_verifies_clean(name):
    report = verify_app(BUILTIN_APPS[name], label=name)
    assert report.diagnostics == [], "\n".join(
        d.render() for d in report.diagnostics)


@pytest.mark.parametrize(
    "name", ["async_counter", "heavy_hitter", "superspreader"]
)
def test_lazy_snapshot_apps_declare_metadata_sram(name):
    # Regression for the RP132 fixes: the declared SRAM must cover the
    # active-flag and last-updated registers, not just the data slots.
    app = BUILTIN_APPS[name]()
    declared = app.resource_usage()["sram_bits"]
    for array in app.snapshot_structures().values():
        assert declared >= array.sram_bits()

