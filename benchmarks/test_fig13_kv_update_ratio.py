"""Fig 13: in-switch KV store throughput vs. update ratio and store count.

Paper result: with uniformly random keys, throughput falls as the update
ratio grows because every update is a synchronous replication; adding
state-store servers (1 -> 2 -> 3) raises the write-bound floor roughly
linearly, and the knee where the store becomes the bottleneck moves right.

As with Fig 12, the headline series is the fluid model (validated here by
a scaled packet-level sweep with a finite-capacity store).
"""

from __future__ import annotations

import pytest

from repro import Simulator, deploy
from repro.analysis import fig13_series, kv_throughput_mpps
from repro.apps import KvStoreApp
from repro.workloads.traces import kv_trace

from _bench_utils import emit, print_header, print_rows

RATIOS = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


def measure_scaled(update_ratio: float, num_stores: int,
                   packets: int = 1200, gap_us: float = 2.0,
                   num_keys: int = 256) -> float:
    """Steady-state replies per us with 0.25 Mpps of store capacity each.

    Leases are pre-warmed (one read per key at unthrottled store speed)
    so the measurement reflects the steady state, not the cold-start
    lease storm: the paper's runs are minutes long.
    """
    sim = Simulator(seed=13)
    dep = deploy(sim, KvStoreApp, num_shards=num_stores, chain_length=1)
    e1 = dep.bed.externals[0]
    replies = []
    e1.default_handler = lambda pkt: replies.append(sim.now)
    for event in kv_trace(num_keys * 2, num_keys, e1.ip, 0.0, seed=99):
        sim.schedule(event.trace_id * 5.0, e1.send, event.pkt)
    sim.run_until_idle()
    replies.clear()

    for store in dep.stores:
        store.service_time_us = 4.0  # 0.25 Mpps per store server
    start = sim.now
    for event in kv_trace(packets, num_keys, e1.ip, update_ratio, seed=13):
        sim.schedule(event.trace_id * gap_us, e1.send, event.pkt)
    horizon = packets * gap_us
    sim.run(until=start + horizon * 4 + 200_000)
    in_window = [t for t in replies if t <= start + horizon + 100.0]
    return len(in_window) / horizon


def test_fig13(run_once):
    def experiment():
        analytic = fig13_series(RATIOS, store_counts=[1, 2, 3])
        measured = {
            stores: [measure_scaled(u, stores) for u in (0.0, 0.5, 1.0)]
            for stores in (1, 3)
        }
        return analytic, measured

    analytic, measured = run_once(experiment)
    print_header("Fig 13 — KV-store throughput vs update ratio (Mpps)")
    rows = []
    for i, ratio in enumerate(RATIOS):
        rows.append({
            "update ratio": ratio,
            "1 store": analytic[1][i],
            "2 stores": analytic[2][i],
            "3 stores": analytic[3][i],
        })
    print_rows(rows, ["update ratio", "1 store", "2 stores", "3 stores"])
    emit(f"scaled packet-level (0.25 Mpps/store, update ratios 0/0.5/1): "
          f"1 store={ [round(x, 3) for x in measured[1]] }, "
          f"3 stores={ [round(x, 3) for x in measured[3]] }")
    emit("paper: adding store servers raises write-heavy throughput; "
          "read-only ceiling independent of stores")

    from repro.analysis import ascii_series

    emit()
    emit(ascii_series(
        {
            f"{n} store(s)": list(zip(RATIOS, analytic[n]))
            for n in (1, 2, 3)
        },
        x_label="update ratio",
        y_label="Mpps",
    ))

    # Monotone decreasing in update ratio; scaling with store count.
    for stores in (1, 2, 3):
        series = analytic[stores]
        assert all(a >= b for a, b in zip(series, series[1:]))
    assert analytic[3][-1] == pytest.approx(3 * analytic[1][-1])
    assert analytic[1][0] == analytic[3][0]

    # Packet-level shape: read-only unaffected by store count; write-heavy
    # throughput grows with stores and is store-bound.
    for stores in (1, 3):
        assert measured[stores][0] > 0.45        # reads at offered load
    assert measured[3][2] > 1.5 * measured[1][2]  # stores scale writes
    assert measured[1][2] < 0.35                  # 1 store saturates
    assert measured[3][1] > measured[1][1]        # and at u=0.5 as well
