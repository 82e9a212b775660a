"""Tests for the pipeline verifier (repro.verify pass 1, RP1xx rules)."""

import inspect

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
from repro.verify import Report, Severity, SuppressionIndex
from repro.verify.pipeline_pass import verify_app, verify_asic
from repro.apps import BUILTIN_APPS


def fresh_switch():
    return SwitchASIC(Simulator(seed=0), "sw", ip=1)


def run_pass(switch, finalize=False):
    # finalize=False by default: every fixture block lives in this one
    # file, so judging *unused* suppressions (QA002) would cross-talk
    # between tests; only the suppression test opts in.
    supp = SuppressionIndex()
    report = verify_asic(switch, suppressions=supp)
    if finalize:
        report.finalize_suppressions(supp)
    return report


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


class SuppressedDoubleBlock(ControlBlock):
    name = "suppressed-double"

    def __init__(self):
        self.reg = RegisterArray("supp.reg", 4, 32)

    def process(self, ctx, switch):
        self.reg.read(ctx, 0)  # repro: noqa[RP101] -- fixture: waived on purpose for the suppression test
        self.reg.write(ctx, 1, 1)
        return True

    def resource_usage(self):
        return {"sram_bits": self.reg.sram_bits(), "meter_alus": 2}


class LeakyHandlerBlock(ControlBlock):
    """Owns a mirror session whose handler never releases copies."""

    name = "leaky"

    def __init__(self, switch):
        self.session = switch.new_mirror_session(truncate_to_bytes=64)
        self.session.handler = self.on_pass

    def process(self, ctx, switch):
        self.session.mirror(ctx.pkt)
        return True

    def on_pass(self, pkt, meta):
        return True  # keep circulating, forever

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


def test_unwired_mirror_session_flagged():
    sw = fresh_switch()
    sw.new_mirror_session()  # no handler, no truncation, never mirrored to
    report = run_pass(sw)
    rules = sorted({d.rule for d in report.diagnostics})
    assert rules == ["RP120", "RP121", "RP122"]


def test_leaky_handler_flagged():
    sw = fresh_switch()
    sw.add_block(LeakyHandlerBlock(sw))
    report = run_pass(sw)
    hits = report.by_rule("RP123")
    assert len(hits) == 1
    assert hits[0].line == inspect.unwrap(
        LeakyHandlerBlock.on_pass
    ).__code__.co_firstlineno
    assert not report.by_rule("RP120")
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


# -- suppressions -------------------------------------------------------------


def test_suppressed_double_access_keeps_exit_code_zero():
    sw = fresh_switch()
    sw.add_block(SuppressedDoubleBlock())
    report = run_pass(sw, finalize=True)
    hits = report.by_rule("RP101")
    assert len(hits) == 1
    assert hits[0].suppressed
    assert "fixture" in hits[0].justification
    assert report.exit_code() == 0
    assert not report.by_rule("QA001")
    assert not report.by_rule("QA002")


# -- the builtin applications (satellite: the RP132 sweep) --------------------


@pytest.mark.parametrize("name", sorted(BUILTIN_APPS))
def test_builtin_app_verifies_clean(name):
    supp = SuppressionIndex()
    report = Report()
    verify_app(
        BUILTIN_APPS[name], label=name, report=report, suppressions=supp
    )
    # Standalone pass run: restrict QA002 to pipeline rules — the pass
    # walks live code into files (the simulator, say) whose suppressions
    # belong to other passes.
    report.finalize_suppressions(supp, rules=("RP",))
    unsuppressed = report.active()
    assert unsuppressed == [], "\n".join(d.render() for d in unsuppressed)


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


# -- RP150: store-backend registers on the packet path ------------------------


class CpServingStoreBlock(ControlBlock):
    """A bad in-switch store: serves packets via control-plane register
    ops, dodging the pipeline's stateful-ALU accounting."""

    name = "cp-serving-store"

    def __init__(self):
        from repro.statestore.netchain import NetChainBackend

        self.backend = NetChainBackend(label="bad", size=8)

    def process(self, ctx, switch):
        if ctx.pkt.l4 is None:
            return True
        seq = self.backend.reg_seq.cp_read(0)
        self.backend.reg_seq.cp_write(0, seq + 1)
        return True

    def resource_usage(self):
        return {"sram_bits": self.backend.sram_bits()}


def test_rp150_store_register_cp_ops_on_packet_path():
    switch = fresh_switch()
    block = CpServingStoreBlock()
    switch.add_block(block)
    report = run_pass(switch)
    rp150 = [d for d in report.diagnostics if d.rule == "RP150"]
    assert len(rp150) == 2  # one per cp_read / cp_write site
    assert all(d.severity is Severity.ERROR for d in rp150)
    assert rp150[0].line == line_of(CpServingStoreBlock, "cp_read(0)")
    assert rp150[1].line == line_of(CpServingStoreBlock, "cp_write(0, seq")


def test_rp150_not_raised_for_non_store_registers():
    """Engine-style cp ops on registers a backend does not own (state
    migration, RMW modeling shortcuts) stay legal."""

    class CpMigrationBlock(ControlBlock):
        name = "cp-migration"

        def __init__(self):
            self.reg = RegisterArray("mig.reg", 8, 32)

        def process(self, ctx, switch):
            self.reg.cp_write(0, 7)  # not backend-owned: no RP150
            return True

        def resource_usage(self):
            return {"sram_bits": self.reg.sram_bits()}

    switch = fresh_switch()
    switch.add_block(CpMigrationBlock())
    report = run_pass(switch)
    assert not [d for d in report.diagnostics if d.rule == "RP150"]


def test_netchain_store_block_verifies_clean():
    """The shipped in-switch store obeys RP101/RP110/RP150: every
    per-packet register touch goes through pipelined access()."""
    from repro.verify.pipeline_pass import verify_netchain

    report = verify_netchain()
    assert "store:netchain" in report.analyzed
    assert report.active(Severity.ERROR) == []
    assert report.by_rule("RP150") == []
