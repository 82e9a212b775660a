"""Stateful register arrays, the switch's data-plane memory.

Registers model Tofino stateful ALU semantics:

* a register array holds ``size`` entries of ``width_bits`` each (or pairs
  of entries, Tofino's ``pair<int,int>``);
* each array can be accessed **once per packet**, and that access is a
  single read-modify-write executed atomically by the stateful ALU;
* updates from the data plane are immediate; the control plane can also
  read/write them (slowly) over PCIe.

SRAM usage is accounted for the Table 2 reproduction.

Like SRAM, register memory is a fixed block of ``size`` entries typed by
width (1 and 8 bits as ``B``, 16 as ``H``, 32 as ``I``, 64 as ``Q``): an
anonymous zero-filled mapping viewed as that type. The operating system
backs a page only when it is first written, so an array costs the pages
of the indices a run touched, not ``size`` slots up front. The mapping
is ``MAP_PRIVATE``: shard workers fork, and with the default shared
mapping a child's register writes would reach its parent.
"""

from __future__ import annotations

import mmap
from typing import Callable, List, Tuple

from repro.switch.pipeline import PipelineContext

#: Register width in bits -> the ``memoryview`` format that holds it.
_TYPECODES = {1: "B", 8: "B", 16: "H", 32: "I", 64: "Q"}


def _zeroed(count: int, width_bits: int) -> memoryview:
    """``count`` zero entries of ``width_bits`` each, in private pages
    that cost memory only once written."""
    if count <= 0:
        raise ValueError("register array size must be positive")
    if width_bits not in _TYPECODES:
        raise ValueError(f"unsupported register width: {width_bits}")
    itemsize = max(width_bits // 8, 1)
    return memoryview(
        mmap.mmap(-1, count * itemsize, flags=mmap.MAP_PRIVATE)
    ).cast(_TYPECODES[width_bits])


class RegisterArray:
    """A register array of single values."""

    def __init__(
        self,
        name: str,
        size: int,
        width_bits: int = 32,
        initial: int = 0,
    ) -> None:
        self.name = name
        self.size = size
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        self._values = _zeroed(size, width_bits)
        initial &= self._mask
        if initial:
            # Like P4's ``Register`` initial value; writing it maps every page.
            for index in range(size):
                self._values[index] = initial

    # -- data-plane access (constrained) ---------------------------------------

    def access(
        self,
        ctx: PipelineContext,
        index: int,
        fn: Callable[[int], Tuple[int, int]],
    ) -> int:
        """One atomic read-modify-write: ``fn(old) -> (new, result)``.

        This is the single permitted data-plane touch of this array for
        ``ctx``'s packet; the returned ``result`` is what the stateful ALU
        hands back to the pipeline.
        """
        # Inlined access-constraint check (hot path: several calls per
        # packet); the method call only happens on the violation path,
        # where it raises with the full diagnostic.
        accessed = ctx._accessed_arrays
        key = id(self)
        if key in accessed:
            ctx.note_register_access(self)
        accessed.add(key)
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        new, result = fn(self._values[index])
        self._values[index] = new & self._mask
        return result

    def read(self, ctx: PipelineContext, index: int) -> int:
        """Data-plane read (counts as the packet's single access)."""
        accessed = ctx._accessed_arrays
        key = id(self)
        if key in accessed:
            ctx.note_register_access(self)
        accessed.add(key)
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        return self._values[index]

    def write(self, ctx: PipelineContext, index: int, value: int) -> int:
        """Data-plane write (counts as the packet's single access)."""
        accessed = ctx._accessed_arrays
        key = id(self)
        if key in accessed:
            ctx.note_register_access(self)
        accessed.add(key)
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        self._values[index] = value & self._mask
        return value

    # -- control-plane access (unconstrained but slow in real hardware) --------

    def cp_read(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        return self._values[index]

    def cp_write(self, index: int, value: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        self._values[index] = value & self._mask

    def cp_dump(self) -> List[int]:
        return list(self._values)

    # -- accounting -----------------------------------------------------------

    def sram_bits(self) -> int:
        return self.size * self.width_bits

    def __repr__(self) -> str:
        return f"<RegisterArray {self.name} {self.size}x{self.width_bits}b>"


class PairedRegisterArray:
    """A register array of ``pair<int,int>`` entries.

    Used by the lazy-snapshotting structure (Algorithm 1): each index holds
    two interleaved copies of one logical slot, and one packet's single
    access can read/update both halves atomically.
    """

    def __init__(self, name: str, size: int, width_bits: int = 32) -> None:
        self.name = name
        self.size = size
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        #: Pair ``i`` is entries ``2i`` (lo) and ``2i + 1`` (hi).
        self._values = _zeroed(2 * size, width_bits)

    def access(
        self,
        ctx: PipelineContext,
        index: int,
        fn: Callable[[int, int], Tuple[int, int, int]],
    ) -> int:
        """Atomic RMW over the pair: ``fn(lo, hi) -> (new_lo, new_hi, result)``."""
        ctx.note_register_access(self)
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        values = self._values
        lo_at = 2 * index
        new_lo, new_hi, result = fn(values[lo_at], values[lo_at + 1])
        values[lo_at] = new_lo & self._mask
        values[lo_at + 1] = new_hi & self._mask
        return result

    def cp_read(self, index: int) -> Tuple[int, int]:
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        lo_at = 2 * index
        return self._values[lo_at], self._values[lo_at + 1]

    def cp_write(self, index: int, lo: int, hi: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}[{index}] out of range (size {self.size})")
        lo_at = 2 * index
        self._values[lo_at] = lo & self._mask
        self._values[lo_at + 1] = hi & self._mask

    def sram_bits(self) -> int:
        return self.size * self.width_bits * 2

    def __repr__(self) -> str:
        return f"<PairedRegisterArray {self.name} {self.size}x2x{self.width_bits}b>"
