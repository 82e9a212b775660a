"""Fig 11: snapshot-replication bandwidth vs. frequency and sketch count.

Paper result: bandwidth grows linearly in the snapshot frequency
(32-1024 Hz on the x-axis) and in the number of sketches (3/4/5 lines);
at a 1 ms period (1 kHz) with 3 sketches it consumes 34.16 Mbps — the
accounting counts RedPlane header bytes (~22-26 B per slot message).

We print the analytic series (the paper's own accounting) and validate it
against a packet-level simulation of the HH detector at two frequencies.
"""

from __future__ import annotations

import pytest

from repro import RedPlaneConfig, Simulator, deploy
from repro.analysis import fig11_series, snapshot_bandwidth_mbps
from repro.apps import HeavyHitterApp

from _bench_utils import emit, print_header, print_rows

FREQUENCIES = [32, 64, 128, 256, 512, 1024]
SKETCHES = [3, 4, 5]


def measure_simulated_mbps(freq_hz: float, num_rows: int = 3,
                           duration_us: float = 50_000.0) -> float:
    """Packet-level measurement of snapshot protocol-header bandwidth."""
    sim = Simulator(seed=3)
    dep = deploy(
        sim,
        lambda: HeavyHitterApp(vlans=[10], threshold=10 ** 6, depth=num_rows),
        config=RedPlaneConfig(snapshot_period_us=1e6 / freq_hz),
    )
    agg = dep.bed.aggs[0]
    sim.run(until=duration_us)
    for a in dep.bed.aggs:
        a.pktgen.stop()
    sim.run_until_idle()
    bits = agg.bytes_protocol_out * 8
    return bits / duration_us  # bits per us == Mbps


def test_fig11(run_once):
    def experiment():
        analytic = fig11_series(SKETCHES, FREQUENCIES)
        measured = {
            freq: measure_simulated_mbps(freq) for freq in (256, 1024)
        }
        return analytic, measured

    analytic, measured = run_once(experiment)
    print_header("Fig 11 — snapshot replication bandwidth (Mbps)")
    rows = []
    for i, freq in enumerate(FREQUENCIES):
        row = {"freq_hz": freq}
        for n in SKETCHES:
            row[f"{n} sketches"] = analytic[n][i]
        rows.append(row)
    print_rows(rows, ["freq_hz"] + [f"{n} sketches" for n in SKETCHES])
    emit(f"measured (packet-level, 3 sketches): "
          f"{ {f: round(m, 1) for f, m in measured.items()} }")
    emit("paper: 34.16 Mbps at 1 kHz with 3 sketches; linear in both axes")

    # The paper's headline point: ~34 Mbps at 1 kHz, 3 sketches.
    assert analytic[3][FREQUENCIES.index(1024)] == pytest.approx(34.16 * 1.024,
                                                                 rel=0.25)
    # Linearity in frequency and sketch count.
    for n in SKETCHES:
        assert analytic[n][3] == pytest.approx(2 * analytic[n][2], rel=0.01)
    assert analytic[5][0] == pytest.approx(analytic[3][0] * 5 / 3, rel=0.01)
    # Packet-level measurement agrees with the analytic accounting. The
    # simulated protocol bytes include IP/UDP encapsulation, so allow a
    # constant factor; the *scaling* with frequency must match.
    ratio = measured[1024] / measured[256]
    assert ratio == pytest.approx(4.0, rel=0.15)
    model = snapshot_bandwidth_mbps(3, 64, 1024)
    assert measured[1024] == pytest.approx(model, rel=2.0)
