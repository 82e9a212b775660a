"""Back-compat shims: legacy counter dicts as views over the registry.

The pre-telemetry code exposed free-form stat dicts (``Simulator.counters``,
``RedPlaneEngine.stats``). Those dicts are now *views* over registry
instruments, so existing experiments and tests keep working unchanged
while the registry is the single source of truth. The views are
read-only; code that counts uses ``sim.metrics.counter(name).inc()`` /
``sim.count()``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping

from repro.telemetry.metrics import Counter, MetricRegistry


#: Prefix of the historical flat drop-counter names, now synthesized from
#: the labeled ``link.drops{link,reason}`` counters.
_FLAT_LINK_DROPS = "link.drops."


class LegacyCounters(Mapping):
    """``Simulator.counters`` shim: a read-only dict view of unlabeled
    counters.

    Reads reflect the registry live. Labeled instruments never appear
    here — the legacy dict only ever held the flat ``sim.count()``
    namespace — with one exception: the historical
    ``link.drops.<reason>`` names read as reason-wise totals over the
    labeled ``link.drops`` counters that replaced them.
    """

    def __init__(self, registry: MetricRegistry) -> None:
        self._registry = registry

    def _counter(self, key: str) -> Counter:
        inst = self._registry.get(key)
        if not isinstance(inst, Counter) or inst.labels:
            raise KeyError(key)
        return inst

    def _link_drop_reasons(self) -> Iterator[str]:
        seen = set()
        for inst in self._registry.instruments("link.drops"):
            if isinstance(inst, Counter) and inst.labels:
                reason = inst.label_dict.get("reason")
                if reason is not None and reason not in seen:
                    seen.add(reason)
                    yield reason

    def __getitem__(self, key: str) -> float:
        try:
            return self._counter(key).value
        except KeyError:
            if key.startswith(_FLAT_LINK_DROPS):
                reason = key[len(_FLAT_LINK_DROPS):]
                if reason in set(self._link_drop_reasons()):
                    return self._registry.total("link.drops", reason=reason)
            raise

    def __iter__(self) -> Iterator[str]:
        for inst in self._registry.instruments():
            if isinstance(inst, Counter) and not inst.labels:
                yield inst.name
        for reason in sorted(self._link_drop_reasons()):
            yield _FLAT_LINK_DROPS + reason

    def __len__(self) -> int:
        return sum(1 for _ in iter(self))

    def __repr__(self) -> str:
        return repr(dict(self))


class StatGroupView(Mapping):
    """Read-only integer mapping over a fixed group of counters.

    ``RedPlaneEngine.stats`` and the state-store node statistics are
    published as registry counters; this view preserves the old dict
    reading surface (``eng.stats["app_packets"]``, ``dict(eng.stats)``)
    with the integer values the old code produced.
    """

    def __init__(self, counters: Dict[str, Counter]) -> None:
        self._counters = counters

    def __getitem__(self, key: str) -> int:
        return int(self._counters[key].value)

    def __iter__(self) -> Iterator[str]:
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)

    def __repr__(self) -> str:
        return repr({k: int(c.value) for k, c in self._counters.items()})
