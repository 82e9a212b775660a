"""Fluid (analytic) throughput model for Figs 12 and 13.

Python cannot push 122.5 Mpps through a packet-level simulator, and the
paper itself resorts to "analytical model-based simulation" for its
at-scale bandwidth numbers (§7.2). This model captures the two bottlenecks
that shape Figs 12/13:

* the fabric bottleneck — the aggregation-to-core link caps forwarding at
  ``SWITCH_MAX_FORWARD_MPPS`` (122.5 Mpps measured in the testbed);
* the state-store bottleneck — every synchronously replicated update costs
  one request/response at a store server of capacity
  ``STORE_CAPACITY_MPPS``, so an app whose packets update state with
  probability ``w`` is capped at ``shards * capacity / w``.

Mixed read/write apps additionally lose a little goodput to packets
buffered through the network while updates are in flight (EPC-SGW's small
dip in Fig 12): each in-flight update holds concurrent same-partition
reads for about one replication RTT.

The packet-level simulator validates the model's *shape* at scaled-down
rates in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.net import constants


@dataclass(frozen=True)
class AppProfile:
    """What the fluid model needs to know about an application."""

    name: str
    #: Probability that a packet synchronously updates state.
    write_fraction: float
    #: Probability that a packet reads state of a partition that may have
    #: an in-flight update (drives read-buffering; only meaningful > 0 for
    #: mixed read/write apps with hot partitions).
    gated_read_fraction: float = 0.0
    #: True if state replicates asynchronously (snapshots): no store bound.
    asynchronous: bool = False


#: Profiles of the §6 applications. Read-centric apps write only on flow
#: setup, a vanishing fraction at steady state. EPC-SGW signals once per
#: 18 packets and its per-user partitions are hot enough that reads racing
#: an in-flight update are common.
APP_PROFILES: Dict[str, AppProfile] = {
    "nat": AppProfile("nat", write_fraction=0.0),
    "firewall": AppProfile("firewall", write_fraction=0.0),
    "load-balancer": AppProfile("load-balancer", write_fraction=0.0),
    "epc-sgw": AppProfile(
        "epc-sgw", write_fraction=1.0 / 18.0, gated_read_fraction=1.0
    ),
    "hh-detector": AppProfile("hh-detector", write_fraction=1.0, asynchronous=True),
    "sync-counter": AppProfile("sync-counter", write_fraction=1.0),
}


def throughput_mpps(
    profile: AppProfile,
    redplane: bool,
    num_shards: int = 3,
    link_mpps: float = constants.SWITCH_MAX_FORWARD_MPPS,
    store_mpps: float = constants.STORE_CAPACITY_MPPS,
) -> float:
    """Sustained forwarding rate of one application (Fig 12's metric)."""
    if not redplane or profile.asynchronous or profile.write_fraction == 0.0:
        base = link_mpps
    else:
        store_bound = num_shards * store_mpps / profile.write_fraction
        base = min(link_mpps, store_bound)
    if redplane and 0.0 < profile.write_fraction < 1.0:
        # Packets buffered through the network while updates are in flight
        # effectively traverse the switch twice; the goodput dip scales
        # with how often reads race an in-flight write.
        penalty = profile.write_fraction * profile.gated_read_fraction
        base *= 1.0 - penalty
    return base


def fig12_rows(num_shards: int = 3) -> List[Dict[str, float]]:
    """(app, without-RedPlane, with-RedPlane) rows of Fig 12."""
    rows = []
    for name, profile in APP_PROFILES.items():
        rows.append(
            {
                "app": name,
                "without_mpps": throughput_mpps(profile, redplane=False),
                "with_mpps": throughput_mpps(profile, redplane=True,
                                             num_shards=num_shards),
            }
        )
    return rows


#: Offered load of the Fig 13 KV experiment: three senders at ~69.2 Mpps
#: minus response turnaround overhead; the paper's read-only ceiling.
KV_MAX_MPPS = 150.0


def kv_throughput_mpps(
    update_ratio: float,
    num_stores: int,
    store_mpps: float = constants.STORE_CAPACITY_MPPS,
    max_mpps: float = KV_MAX_MPPS,
) -> float:
    """KV-store throughput vs. update ratio (Fig 13).

    Reads are served entirely on-switch; only updates touch the store, so
    throughput follows ``min(ceiling, stores * capacity / u)`` — adding
    store servers raises the write-heavy floor, which is Fig 13's point.
    """
    if not 0.0 <= update_ratio <= 1.0:
        raise ValueError("update ratio must be in [0, 1]")
    if update_ratio == 0.0:
        return max_mpps
    return min(max_mpps, num_stores * store_mpps / update_ratio)


def fig13_series(
    update_ratios: List[float], store_counts: List[int] = (1, 2, 3)
) -> Dict[int, List[float]]:
    """Fig 13's line series: store count -> throughput per update ratio."""
    return {
        n: [kv_throughput_mpps(u, n) for u in update_ratios]
        for n in store_counts
    }
