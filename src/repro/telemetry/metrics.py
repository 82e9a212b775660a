"""Labeled metric instruments and the registry that owns them.

Three instrument kinds, mirroring the usual metrics taxonomy:

* :class:`Counter` — monotonically increasing totals (bytes sent, drops);
* :class:`Gauge` — point-in-time levels (buffer occupancy, table entries);
* :class:`Histogram` — streaming value distributions (RTTs) with exact
  running aggregates and a bounded, deterministically decimated sample
  reservoir for interpolated percentiles.

Instruments are identified by ``(name, labels)``; the registry hands out
the same object for the same identity, so hot paths cache the handle once
at construction time and publish with a plain attribute access afterwards.

All values are floats (integer counts are exact in doubles well past any
run length this simulator reaches). Nothing here touches wall-clock time
or randomness, so publishing metrics can never perturb a seeded run.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

#: Canonical label encoding: a sorted tuple of (key, value) string pairs.
LabelItems = Tuple[Tuple[str, str], ...]


def percentile(samples: Sequence[float], p: float) -> float:
    """The p-th percentile (0-100) with linear interpolation.

    This is the canonical implementation; ``repro.analysis.stats`` re-exports
    it so the analysis layer and the histograms agree bit-for-bit.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Instrument:
    """Base class: a named, labeled measurement publisher."""

    kind = "instrument"
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels

    @property
    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)

    def describe(self) -> str:
        """``name{k=v,...}`` — the stable textual identity."""
        if not self.labels:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}{{{inner}}}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class Counter(Instrument):
    """A monotonically increasing total.

    ``value`` is a plain attribute: a hot path holding the handle may add
    a non-negative amount to it in place (``ctr.value += n``, what
    ``inc`` does after its sign check) without a method call.
    """

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount


class Gauge(Instrument):
    """A level that can move both ways."""

    kind = "gauge"
    __slots__ = ("_value", "on_change")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        super().__init__(name, labels)
        self._value = 0.0
        #: Optional observer called with ``(gauge, op, amount)`` on every
        #: mutation (op is ``"set"``/``"add"``/``"set_max"``). Shard mode
        #: logs the operation stream so the merge layer can replay
        #: cross-flow-coupled gauges (peaks) in global order.
        self.on_change = None

    def set(self, value: float) -> None:
        if self.on_change is not None:
            self.on_change(self, "set", value)
        self._value = float(value)

    def add(self, delta: float) -> None:
        if self.on_change is not None:
            self.on_change(self, "add", delta)
        self._value += delta

    def set_max(self, value: float) -> None:
        """Ratchet: keep the running maximum (peak tracking)."""
        if self.on_change is not None:
            self.on_change(self, "set_max", value)
        if value > self._value:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram(Instrument):
    """A streaming distribution with bounded, deterministic retention.

    Running ``count``/``sum``/``min``/``max`` are exact for every
    observation. The percentile reservoir keeps at most ``max_samples``
    values: when it fills, every other retained sample is discarded and
    the retention stride doubles, so memory stays bounded without drawing
    randomness (reservoir sampling would perturb nothing here, but a
    deterministic scheme keeps snapshots reproducible by construction).
    """

    kind = "histogram"
    __slots__ = ("max_samples", "count", "sum", "_min", "_max",
                 "_samples", "_stride", "_skip", "on_observe")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        max_samples: Optional[int] = 8192,
    ) -> None:
        super().__init__(name, labels)
        if max_samples is not None and max_samples < 2:
            raise ValueError("max_samples must be >= 2 (or None)")
        self.max_samples = max_samples
        self.count = 0
        self.sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._samples: List[float] = []
        self._stride = 1
        self._skip = 0
        #: Optional observer called with ``(histogram, value)`` on every
        #: observation. Shard mode logs observations through this so the
        #: merge layer can rebuild the reference reservoir (decimation is
        #: order-dependent, so summed reservoirs would not match).
        self.on_observe = None

    def observe(self, value: float) -> None:
        value = float(value)
        if self.on_observe is not None:
            self.on_observe(self, value)
        self.count += 1
        self.sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if self._skip:
            self._skip -= 1
            return
        self._samples.append(value)
        self._skip = self._stride - 1
        if self.max_samples is not None and len(self._samples) >= self.max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2

    @property
    def samples(self) -> List[float]:
        """The retained (possibly decimated) sample reservoir."""
        return list(self._samples)

    @property
    def value(self) -> float:
        """Registry-uniform scalar view: the observation count."""
        return float(self.count)

    def percentile(self, p: float) -> float:
        return percentile(self._samples, p)

    def summary(self) -> Dict[str, float]:
        """The percentiles the paper quotes plus exact aggregates."""
        if self.count == 0:
            raise ValueError(f"histogram {self.name} has no observations")
        return {
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "min": float(self._min),
            "max": float(self._max),
            "mean": self.sum / self.count,
            "count": float(self.count),
        }


class MetricRegistry:
    """Get-or-create home for every instrument of one run.

    One registry per :class:`~repro.net.simulator.Simulator`; components
    create their instruments at construction time and hold the handles.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelItems], Instrument] = {}
        #: ``name -> [instrument, ...]``, each list in creation order: a sum
        #: over it adds the same floats in the same order as the dict walk.
        self._by_name: Dict[str, List[Instrument]] = {}
        #: Optional observer called with each newly created instrument
        #: (shard mode hooks histogram observation logging through this).
        self.on_create = None

    # -- creation ------------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, max_samples: Optional[int] = 8192, **labels: object
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels,
                                   max_samples=max_samples)

    def _get_or_create(
        self, cls: Type[Instrument], name: str, labels: Dict[str, object],
        **init: object,
    ) -> Instrument:
        key = (name, _label_items(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name, key[1], **init)
            self._instruments[key] = inst
            self._by_name.setdefault(name, []).append(inst)
            if self.on_create is not None:
                self.on_create(inst)
        elif type(inst) is not cls:
            raise TypeError(
                f"{inst.describe()} already registered as a {inst.kind}"
            )
        return inst

    # -- lookup --------------------------------------------------------------

    def get(self, name: str, **labels: object) -> Optional[Instrument]:
        return self._instruments.get((name, _label_items(labels)))

    def value(self, name: str, default: float = 0.0, **labels: object) -> float:
        inst = self.get(name, **labels)
        return inst.value if inst is not None else default

    def instruments(self, name: Optional[str] = None) -> Iterator[Instrument]:
        """Every instrument, or those called ``name``, in creation order."""
        if name is None:
            return iter(self._instruments.values())
        return iter(self._by_name.get(name, ()))

    def total(self, name: str, **label_filter: object) -> float:
        """Sum ``value`` across instruments matching a label filter.

        A filter value may be a scalar (exact match) or a set/list/tuple
        (match any). Aggregating across label dimensions — e.g. protocol
        bytes over all switches — is how the analysis layer reads without
        touching component internals. The cost is the number of
        instruments called ``name``, not the size of the registry.
        """
        named = self._by_name.get(name, ())
        total = 0.0
        if not label_filter:
            for inst in named:
                total += inst.value
            return total
        allowed: Dict[str, set] = {}
        for k, v in label_filter.items():
            if isinstance(v, (set, frozenset, list, tuple)):
                allowed[k] = {str(item) for item in v}
            else:
                allowed[k] = {str(v)}
        for inst in named:
            labels = inst.label_dict
            if all(labels.get(k) in vals for k, vals in allowed.items()):
                total += inst.value
        return total

    # -- export --------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A plain-data dump: kind -> {``name{labels}``: value/summary}."""
        out: Dict[str, Dict[str, object]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for key in sorted(self._instruments):
            inst = self._instruments[key]
            if isinstance(inst, Histogram):
                out["histograms"][inst.describe()] = (
                    inst.summary() if inst.count else {"count": 0.0}
                )
            elif isinstance(inst, Gauge):
                out["gauges"][inst.describe()] = inst.value
            else:
                out["counters"][inst.describe()] = inst.value
        return out


def render_snapshot(snap: Dict[str, Dict[str, object]]) -> str:
    """Human-readable form of a :meth:`MetricRegistry.snapshot` (whole or
    filtered) for the ``repro.tools metrics`` CLI."""
    lines: List[str] = []
    for section in ("counters", "gauges", "histograms"):
        entries = snap[section]
        lines.append(f"{section} ({len(entries)}):")
        for ident, value in entries.items():
            if isinstance(value, dict):
                detail = "  ".join(f"{k}={v:.2f}" for k, v in value.items())
                lines.append(f"  {ident}  {detail}")
            else:
                lines.append(f"  {ident} = {value:g}")
    return "\n".join(lines)
