"""Tests for register arrays and the one-access-per-packet constraint."""

import os

import pytest
from hypothesis import given, strategies as st

from repro.switch.pipeline import PipelineContext, RegisterAccessError
from repro.switch.registers import PairedRegisterArray, RegisterArray
from repro.net.packet import Packet


def ctx():
    return PipelineContext(pkt=Packet(), now=0.0)


def test_read_write_basic():
    reg = RegisterArray("r", 8)
    c = ctx()
    assert reg.read(c, 3) == 0
    c2 = ctx()
    assert reg.write(c2, 3, 42) == 42
    assert reg.cp_read(3) == 42


def test_rmw_returns_alu_result():
    reg = RegisterArray("r", 4)
    c = ctx()
    result = reg.access(c, 0, lambda old: (old + 5, old))
    assert result == 0
    assert reg.cp_read(0) == 5


def test_double_access_same_packet_rejected():
    reg = RegisterArray("r", 4)
    c = ctx()
    reg.read(c, 0)
    with pytest.raises(RegisterAccessError):
        reg.read(c, 1)


def test_two_arrays_one_packet_allowed():
    a = RegisterArray("a", 4)
    b = RegisterArray("b", 4)
    c = ctx()
    a.read(c, 0)
    b.read(c, 0)  # no error: different arrays


def test_new_packet_resets_budget():
    reg = RegisterArray("r", 4)
    reg.read(ctx(), 0)
    reg.read(ctx(), 0)


def test_width_masking():
    for width in (1, 8, 16, 32, 64):
        reg = RegisterArray("r", 2, width_bits=width)
        reg.cp_write(0, 2**width - 1)
        reg.cp_write(1, 2**width)
        assert reg.cp_read(0) == 2**width - 1, width
        assert reg.cp_read(1) == 0, width


def test_invalid_width_rejected():
    with pytest.raises(ValueError):
        RegisterArray("r", 4, width_bits=12)


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        RegisterArray("r", 0)


def test_index_bounds():
    reg = RegisterArray("r", 4)
    with pytest.raises(IndexError):
        reg.cp_read(4)
    with pytest.raises(IndexError):
        reg.read(ctx(), -1)


def test_cp_dump():
    reg = RegisterArray("r", 3, initial=7)
    assert reg.cp_dump() == [7, 7, 7]


def test_sram_accounting():
    assert RegisterArray("r", 1024, width_bits=32).sram_bits() == 1024 * 32
    assert PairedRegisterArray("p", 64, width_bits=32).sram_bits() == 64 * 64


def test_paired_rmw():
    pair = PairedRegisterArray("p", 4)
    c = ctx()
    result = pair.access(c, 1, lambda lo, hi: (lo + 1, hi + 2, lo + hi))
    assert result == 0
    assert pair.cp_read(1) == (1, 2)


def test_paired_double_access_rejected():
    pair = PairedRegisterArray("p", 4)
    c = ctx()
    pair.access(c, 0, lambda lo, hi: (lo, hi, 0))
    with pytest.raises(RegisterAccessError):
        pair.access(c, 1, lambda lo, hi: (lo, hi, 0))


@given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1,
                max_size=50))
def test_register_stores_arbitrary_u32_sequence(values):
    reg = RegisterArray("r", len(values))
    for i, value in enumerate(values):
        reg.write(ctx(), i, value)
    assert reg.cp_dump() == values


@given(st.integers(min_value=0, max_value=2**40))
def test_width_mask_property(value):
    reg = RegisterArray("r", 1, width_bits=32)
    reg.write(ctx(), 0, value)
    assert reg.cp_read(0) == value & 0xFFFFFFFF


def _resident_bytes():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm")
@pytest.mark.parametrize("make, write", [
    (lambda: RegisterArray("r", 1 << 20, 64),
     lambda reg: reg.cp_write(12345, 1)),
    (lambda: PairedRegisterArray("p", 1 << 20, 64),
     lambda reg: reg.cp_write(12345, 1, 2)),
], ids=["single", "paired"])
def test_a_large_array_costs_only_the_pages_it_writes(make, write):
    """Register memory is zero-filled and mapped on first write: a
    million-entry 64-bit array adds no resident memory until written,
    and one write maps one page, not 8 MB of slots."""
    before = _resident_bytes()
    reg = make()
    assert _resident_bytes() - before < 1 << 20
    write(reg)
    assert _resident_bytes() - before < 1 << 20


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_register_written_in_a_forked_child_is_unchanged_in_the_parent():
    """Shard workers fork: register memory must be private to each
    process, or a worker's writes would reach the parent's arrays."""
    reg = RegisterArray("r", 4, 32)
    pair = PairedRegisterArray("p", 4, 32)
    reg.cp_write(1, 5)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: write, report what it sees, exit at once
        try:
            os.close(read_end)
            reg.cp_write(1, 99)
            pair.cp_write(2, 7, 8)
            seen = (reg.cp_read(1), pair.cp_read(2))
            os.write(write_end, repr(seen).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end) as f:
        child_saw = f.read()
    os.waitpid(pid, 0)
    assert child_saw == "(99, (7, 8))"
    assert reg.cp_read(1) == 5
    assert pair.cp_read(2) == (0, 0)
