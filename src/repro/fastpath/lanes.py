"""The names ``bench/`` still resolves in this module.

The per-direction link object is :class:`repro.net.links.Lane` and
``Link.transmit`` is its only entry. ``bench/trace.py`` lists
``Lane.transmit`` and ``Lane._deliver_batch`` from *this* module as tracer
targets and ``bench/tests`` index them on the class, and ``bench/`` is
frozen while a change claims a gain — so they stay resolvable here,
delegating to the link, until the tracer is retargeted. No link builds
this subclass.
"""

from repro.net import links


class Lane(links.Lane):
    __slots__ = ()

    def transmit(self, pkt) -> bool:
        self.src_port.send(pkt)
        return True

    def _deliver_batch(self, pkts) -> None:
        link = self.src_port.link
        for pkt in pkts:
            link._deliver(pkt, self)
