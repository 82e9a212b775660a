#!/usr/bin/env python
"""Scenario: a ten-million-flow Zipf workload through RedPlane-NAT, with
one mid-campaign switch failover — sharded across N workers.

A CDN-edge-shaped workload: packets are drawn from a Zipf popularity
distribution over a population of ten million distinct connections. A
few head flows carry much of the traffic (they live in the flow cache
and the flow table the whole run); a long tail of one-packet flows
churns through lease acquisition, control-plane NAT installs, and —
because the flow table is a fixed-size SRAM resource — periodic
control-plane reclamation of expired entries. Halfway through, one
aggregation switch fails; survivors migrate their leases to the peer
via the state store.

The flow population is *streamed*: each packet draws its flow rank
through an analytic inverse-CDF Zipf sampler (O(1) per draw, no
cumulative-mass table), so a 10M population costs no more memory than a
thousand. The driver is ``run_million_flow_scenario`` in
:mod:`repro.shard.scenarios` — the same campaign ``python -m bench run``
times as ``flow_churn`` (one process) and ``flow_churn_shard2`` (two
spawned workers).

``--workers N`` partitions the flow population across N shards using
the committed shard plan (``shard_plans/nat.json``); the merged counts
are ghost-subtracted back to the single-process totals. With
``--heartbeat-dir`` each shard streams NDJSON health snapshots you can
watch live from another terminal:

    python -m repro.tools watch hb/heartbeat.*.ndjson -f

Run:  python examples/million_flow_campaign.py [--workers N] [--seed N]
      [--packets N] [--population N] [--no-fastpath]
      [--heartbeat-dir DIR] [--mode inline|process]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.shard.runner import resolve, run_sharded  # noqa: E402
from repro.shard.scenarios import (  # noqa: E402
    MF_PACKETS,
    MF_SPACING_US,
    MF_ZIPF_S,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2,
                        help="shard workers (default 2; 1 = no split)")
    parser.add_argument("--seed", type=int, default=None,
                        help="simulator seed (default: the scenario's)")
    parser.add_argument("--packets", type=int, default=MF_PACKETS,
                        help=f"packets to draw (default {MF_PACKETS})")
    parser.add_argument("--population", type=int, default=10_000_000,
                        help="distinct-flow population (default 1e7)")
    parser.add_argument("--no-fastpath", action="store_true",
                        help="reference pipeline only (for A/B timing)")
    parser.add_argument("--heartbeat-dir", dest="heartbeat_dir",
                        help="write per-shard heartbeat NDJSON here "
                             "(watch with 'repro.tools watch DIR/*.ndjson -f')")
    parser.add_argument("--mode", choices=("inline", "process"),
                        default="inline",
                        help="inline (sequential shards, one process) or "
                             "process (spawned workers)")
    args = parser.parse_args()

    print(f"population {args.population:,} flows, {args.packets:,} packets "
          f"(Zipf s={MF_ZIPF_S}, spacing {MF_SPACING_US}us), "
          f"{args.workers} worker(s), {args.mode} mode")

    config = resolve(
        "million_flow", args.workers, seed=args.seed,
        fastpath=not args.no_fastpath, capture=False,
        heartbeat_dir=args.heartbeat_dir,
        params={"packets": args.packets, "population": args.population},
    )
    wall_start = time.perf_counter()
    merged = run_sharded(config, mode=args.mode)
    wall_s = time.perf_counter() - wall_start

    extra = merged.get("extra") or {}
    print(f"\ntranslated {extra.get('translated', 0):,}/{args.packets:,} "
          f"packets ({extra.get('reclaimed', 0):,} flow slots reclaimed, "
          f"flow table peak <= 65,536)")
    print(f"events      : {merged['events']:,} "
          f"(ghost-subtracted across {merged['num_shards']} shard(s))")
    print(f"flows/shard : {merged['flows_per_shard']}")
    walls = ", ".join(f"{w:.1f}s" for w in merged["wall_s_per_shard"])
    print(f"wall/shard  : {walls} (ghost {merged['wall_s_ghost']:.1f}s)")
    print(f"wall clock  : {wall_s:.1f}s total "
          f"-> {args.packets / wall_s:,.0f} pkt/s "
          f"({'fast path' if not args.no_fastpath else 'reference path'})")
    if args.heartbeat_dir:
        print(f"heartbeats  : {args.heartbeat_dir}/heartbeat.*.ndjson "
              f"(python -m repro.tools watch ... -f)")


if __name__ == "__main__":
    main()
