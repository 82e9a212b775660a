"""``repro.fastpath`` — the opt-in simulation acceleration subsystem.

Layers (see docs/PERFORMANCE.md for the full design):

* :mod:`repro.fastpath.flowcache` — per-switch flow fast-path cache whose
  entries are pure functions of their packet;
* :mod:`repro.fastpath.runtime` — installation and dispatch.

The per-hop work (link directions, ECMP results) is compiled in
:mod:`repro.net` itself and needs no :class:`FastPath`.

The contract everywhere is *bit-identical or bust*: with a
:class:`FastPath` installed, trace records, metric values, figure
outputs, and chaos verdicts match a run without it byte for byte.
Enable with::

    from repro.fastpath import FastPath
    fp = FastPath.install(sim)
    ...
    print(fp.stats())
"""

from repro.fastpath.runtime import FastPath

__all__ = ["FastPath"]
