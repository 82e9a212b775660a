"""End-to-end integration tests: failover, recovery, and linearizability
of histories produced by the actual simulator (not hand-written ones)."""

import struct

import pytest

from repro import RedPlaneConfig, Simulator, deploy
from repro.apps import NatApp
from repro.apps.counter import SyncCounterApp
from repro.core.app import AppVerdict
from repro.model.linearizability import FlowHistory, check_counter_history
from repro.net.links import LinkImpairment
from repro.net.packet import Packet
from repro.workloads.tcp import TcpReceiver, TcpSender


class EchoCounterApp(SyncCounterApp):
    """Sync counter that writes the new count into the packet payload, so
    receivers observe the state value each packet saw (for linearizability
    checking over real simulated histories)."""

    name = "echo-counter"

    def process(self, state, pkt, ctx, switch):
        count = state.increment("count")
        pkt.payload = struct.pack("!I", count)
        return AppVerdict.FORWARD


#: Engines record their input history only when asked to.
HISTORY = RedPlaneConfig(record_history=True)


def collect_history(dep, outputs):
    """Merge both switches' input events with receiver-side outputs."""
    history = FlowHistory()
    for engine in dep.engines.values():
        if not engine.config.record_history:
            raise ValueError(f"engine {engine.switch.name} records no history")
        for event in engine.history:
            history.add_input(event.trace_id, None, event.time)
    for trace_id, (value, time) in outputs.items():
        history.add_output(trace_id, value, time)
    return history


def run_echo_counter(sim, dep, n, loss=False, fail_at=None, gap_us=400.0):
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    outputs = {}

    def on_receive(pkt):
        (value,) = struct.unpack_from("!I", pkt.payload, 0)
        outputs[pkt.ip.identification] = (value, sim.now)

    s11.default_handler = on_receive
    for i in range(n):
        pkt = Packet.udp(e1.ip, s11.ip, 5555, 7777)
        pkt.ip.identification = i
        sim.schedule(i * gap_us, e1.send, pkt)
    if fail_at is not None:
        sim.schedule(fail_at, dep.bed.topology.fail_node, dep.bed.aggs[0])
        sim.schedule(fail_at, dep.bed.topology.fail_node, dep.bed.aggs[1])
    return outputs


def test_failure_free_history_linearizable(sim):
    dep = deploy(sim, EchoCounterApp, config=HISTORY)
    outputs = run_echo_counter(sim, dep, 8)
    sim.run_until_idle()
    assert len(outputs) == 8
    history = collect_history(dep, outputs)
    assert check_counter_history(history)
    # Failure-free with no loss: outputs are exactly 1..8 in order.
    values = [outputs[i][0] for i in range(8)]
    assert values == list(range(1, 9))


def test_lossy_history_still_linearizable():
    """§4.2: lost inputs/outputs are permitted anomalies; what does come
    out must still be consistent with SOME sequential order."""
    sim = Simulator(seed=17)
    dep = deploy(sim, EchoCounterApp, config=HISTORY)
    dep.bed.impair_fabric(LinkImpairment(drop_rate=0.08))
    outputs = run_echo_counter(sim, dep, 8, gap_us=2000.0)
    sim.run(until=10_000_000)
    history = collect_history(dep, outputs)
    assert check_counter_history(history)


def test_reordered_history_linearizable():
    sim = Simulator(seed=23)
    dep = deploy(sim, EchoCounterApp, config=HISTORY)
    dep.bed.impair_fabric(LinkImpairment(jitter_us=12.0))
    outputs = run_echo_counter(sim, dep, 8, gap_us=30.0)
    sim.run_until_idle()
    history = collect_history(dep, outputs)
    assert check_counter_history(history)


def test_failover_history_linearizable():
    """The big one: a switch dies mid-flow; the surviving history (across
    BOTH switches plus the store migration) must remain linearizable, and
    the counter must never regress or duplicate."""
    sim = Simulator(seed=31)
    dep = deploy(sim, EchoCounterApp,
                 config=RedPlaneConfig(lease_period_us=200_000.0,
                                       record_history=True))
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    outputs = {}

    def on_receive(pkt):
        (value,) = struct.unpack_from("!I", pkt.payload, 0)
        outputs[pkt.ip.identification] = (value, sim.now)

    s11.default_handler = on_receive
    # 6 packets, then fail the owning switch, then 6 more.
    for i in range(6):
        pkt = Packet.udp(e1.ip, s11.ip, 5555, 7777)
        pkt.ip.identification = i
        sim.schedule(i * 400.0, e1.send, pkt)
    sim.run_until_idle()
    owner = max(dep.engines.values(), key=lambda e: e.stats["app_packets"])
    dep.bed.topology.fail_node(owner.switch)
    sim.run(until=sim.now + 400_000)
    for i in range(6, 12):
        pkt = Packet.udp(e1.ip, s11.ip, 5555, 7777)
        pkt.ip.identification = i
        sim.schedule((i - 6) * 400.0, e1.send, pkt)
    sim.run_until_idle()

    history = collect_history(dep, outputs)
    assert check_counter_history(history)
    values = sorted(v for v, _t in outputs.values())
    assert values == sorted(set(values))  # no duplicated state values
    assert max(values) == len(outputs)    # no gaps for delivered packets
    assert len(outputs) == 12             # nothing was lost across failover


def test_tcp_through_nat_recovers_from_switch_failure():
    """Scaled-down Fig 14: goodput collapses at the failure and recovers
    once routing reroutes and the NAT state migrates via its lease."""
    sim = Simulator(seed=5)
    dep = deploy(sim, NatApp,
                 config=RedPlaneConfig(lease_period_us=300_000.0))
    s11 = dep.bed.servers[0]
    e1 = dep.bed.externals[0]
    sender = TcpSender(sim, "iperf-c", s11.ip + 100, dst_ip=e1.ip,
                       segment_bytes=16 * 1024, goodput_bucket_us=50_000.0,
                       max_cwnd=32.0)
    # Attach the endpoints on 1 Gbps access links so the multi-second
    # timeline stays within a tractable event count; fabric timing and the
    # failover mechanics are unscaled.
    dep.bed.topology.add_node(sender)
    dep.bed.topology.connect(dep.bed.tors[0], sender, bandwidth_gbps=1.0)
    dep.bed.tors[0].table.add(sender.ip, 32, [dep.bed.tors[0].ports[-1]])
    receiver = TcpReceiver(sim, "iperf-s", e1.ip + 100)
    dep.bed.topology.add_node(receiver)
    dep.bed.topology.connect(dep.bed.cores[0], receiver, bandwidth_gbps=1.0)
    dep.bed.cores[0].table.add(receiver.ip, 32, [dep.bed.cores[0].ports[-1]])
    dep.bed.cores[1].table.add(
        receiver.ip, 32,
        [p for p in dep.bed.cores[1].ports
         if p.link and p.link.other_end(p).node is dep.bed.cores[0]],
    )
    sender.dst_ip = receiver.ip

    sender.start()
    sim.run(until=400_000)
    # Fail whichever aggregation switch carries the flow.
    owner = max(dep.engines.values(), key=lambda e: e.stats["app_packets"])
    dep.bed.topology.fail_node(owner.switch, detect_delay_us=150_000.0)
    sim.run(until=2_500_000)
    sender.stop()
    sim.run_until_idle()

    series = sender.goodput_series_gbps(2_500_000)
    healthy = max(g for t, g in series if t < 0.4)
    during = min(g for t, g in series if 0.45 < t < 0.55)
    recovered = max(g for t, g in series if t > 1.5)
    assert healthy > 0.5
    assert during < 0.1 * healthy          # outage visible
    assert recovered > 0.5 * healthy       # throughput came back
    assert receiver.bytes_received == receiver.expected_seq * 16 * 1024


def test_deploy_validates_shard_fit(sim):
    with pytest.raises(ValueError):
        deploy(sim, SyncCounterApp, num_shards=2, chain_length=3)


def test_deploy_shards_spread_keys(sim):
    dep = deploy(sim, SyncCounterApp, num_shards=3, chain_length=1)
    assert dep.shard_map.num_shards == 3
    from repro.net.packet import FlowKey

    shards = {dep.shard_map.shard_index(FlowKey(1, 2, 17, p, 80))
              for p in range(200)}
    assert shards == {0, 1, 2}
