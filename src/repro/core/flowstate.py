"""Per-flow application state: declaration and access tracking.

An application declares its per-flow state as a :class:`StateSpec` — an
ordered list of named 32-bit fields (the granularity RedPlane replicates,
matching the ``Val1..Valn`` slots of the protocol header, Fig 4). At packet
time the engine hands the app a :class:`FlowStateView`; the view records
whether the packet read or wrote state, which is what decides the protocol
action (fast-path forward vs. synchronous replication, §5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

U32_MASK = 0xFFFFFFFF


@dataclass(frozen=True)
class StateSpec:
    """Declaration of an app's per-flow state layout."""

    fields: Tuple[Tuple[str, int], ...]  # (name, default_value)
    #: Name -> slot, built once with the spec and shared by its views.
    index: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {
            name: i for i, (name, _default) in enumerate(self.fields)})

    @classmethod
    def of(cls, *fields: Tuple[str, int]) -> "StateSpec":
        names = [name for name, _default in fields]
        if len(set(names)) != len(names):
            raise ValueError("duplicate state field names")
        return cls(fields=tuple(fields))

    @property
    def num_vals(self) -> int:
        return len(self.fields)

    def default_vals(self) -> List[int]:
        return [default & U32_MASK for _name, default in self.fields]

    def index_of(self, name: str) -> int:
        for i, (field_name, _default) in enumerate(self.fields):
            if field_name == name:
                return i
        raise KeyError(f"unknown state field {name!r}")

    def names(self) -> List[str]:
        return [name for name, _default in self.fields]


class FlowStateView:
    """Read/write access to one flow's state values, with dirty tracking."""

    __slots__ = ("spec", "_vals", "_index", "read_occurred", "write_occurred")

    def __init__(self, spec: StateSpec, vals: Sequence[int]) -> None:
        if len(vals) != len(spec.fields):
            raise ValueError(
                f"state has {len(vals)} values, spec declares {spec.num_vals}"
            )
        self.spec = spec
        self._vals = [v & U32_MASK for v in vals]
        self._index = spec.index
        self.read_occurred = False
        self.write_occurred = False

    def get(self, name: str) -> int:
        self.read_occurred = True
        return self._vals[self._index[name]]

    def set(self, name: str, value: int) -> None:
        self.write_occurred = True
        self._vals[self._index[name]] = value & U32_MASK

    def increment(self, name: str, amount: int = 1) -> int:
        """Read-modify-write, e.g. a per-flow counter bump."""
        self.read_occurred = True
        self.write_occurred = True
        i = self._index[name]
        self._vals[i] = (self._vals[i] + amount) & U32_MASK
        return self._vals[i]

    def vals(self) -> List[int]:
        return list(self._vals)
