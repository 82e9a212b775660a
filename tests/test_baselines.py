"""Tests for the §2.2 / Fig 8 baselines — including their failure modes."""

import pytest

from repro import Simulator
from repro.apps import NatApp, NAT_PUBLIC_IP
from repro.apps.counter import SyncCounterApp
from repro.baselines import (
    CheckpointingAgent,
    ControllerFtBlock,
    ExternalController,
    PacketLogger,
    PlainAppBlock,
    ServerNat,
    SwitchChainBackup,
    SwitchChainHead,
    ftmb_sample_latencies,
    install_nf_routes,
    memory_overhead,
    tunnel_to_nf,
)
from repro.net.links import LinkImpairment
from repro.net.packet import Packet, TCP_SYN, ip_aton
from repro.net.topology import build_testbed
from repro.switch.asic import SwitchASIC


def make_bed(sim):
    return build_testbed(sim, agg_factory=lambda s, n, ip: SwitchASIC(s, n, ip))


# ---------------------------------------------------------------------------
# Plain (no-FT) switch app
# ---------------------------------------------------------------------------


def test_plain_block_state_and_slow_path(sim):
    bed = make_bed(sim)
    blocks = {}
    for agg in bed.aggs:
        block = PlainAppBlock(agg, SyncCounterApp())
        agg.add_block(block)
        blocks[agg.name] = block
    e1, s11 = bed.externals[0], bed.servers[0]
    got = []
    s11.default_handler = got.append
    for i in range(5):
        sim.schedule(i * 100.0, e1.send, Packet.udp(e1.ip, s11.ip, 5555, 7777))
    sim.run_until_idle()
    assert len(got) == 5
    active = max(blocks.values(), key=lambda b: b.packets)
    key = Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key()
    assert active.state[key] == [5]
    # Counters need no control-plane install.
    assert active.slow_path_packets == 0


def test_plain_block_first_packet_slow_path_for_table_apps(sim):
    bed = make_bed(sim)
    for agg in bed.aggs:
        agg.add_block(PlainAppBlock(agg, NatApp()))
    NatApp().provision(bed, [])
    s11, e1 = bed.servers[0], bed.externals[0]
    times = []
    e1.default_handler = lambda pkt: times.append(sim.now)
    t0 = sim.now
    s11.send(Packet.tcp(s11.ip, e1.ip, 7000, 80, flags=TCP_SYN))
    sim.run_until_idle()
    first_latency = times[0] - t0
    t1 = sim.now
    s11.send(Packet.tcp(s11.ip, e1.ip, 7000, 80))
    sim.run_until_idle()
    second_latency = times[1] - t1
    assert first_latency > 80.0       # control-plane install
    assert second_latency < 10.0      # data-plane fast path


def test_plain_block_loses_state_on_failure(sim):
    bed = make_bed(sim)
    block = PlainAppBlock(bed.aggs[0], SyncCounterApp())
    bed.aggs[0].add_block(block)
    block.state[Packet.udp(1, 2, 3, 4).flow_key()] = [9]
    assert block.lose_all_state() == 1
    assert block.state == {}


# ---------------------------------------------------------------------------
# Controller-based FT
# ---------------------------------------------------------------------------


def test_controller_ft_mirrors_and_restores(sim):
    bed = make_bed(sim)
    controller = ExternalController(sim)
    blocks = {}
    for agg in bed.aggs:
        block = ControllerFtBlock(agg, NatApp(), controller)
        agg.add_block(block)
        blocks[agg.name] = block
    block.app.provision(bed, [])
    s11, e1 = bed.servers[0], bed.externals[0]
    got = []
    e1.default_handler = got.append
    s11.send(Packet.tcp(s11.ip, e1.ip, 7000, 80, flags=TCP_SYN))
    sim.run_until_idle()
    assert len(got) == 1
    assert len(controller.mirrored_state) == 1

    active = max(blocks.values(), key=lambda b: b.packets)
    other = next(b for b in blocks.values() if b is not active)
    assert other.restore_from_controller() == 1
    assert other.state == active.state


def test_controller_ft_adds_latency_vs_local(sim):
    controller = ExternalController(sim, replicated=True)
    unreplicated = ExternalController(sim, replicated=False)
    assert controller.update_latency_us() > unreplicated.update_latency_us()
    assert controller.update_latency_us() > 50.0


def test_checkpointing_loses_recent_updates(sim):
    """§2.2: checkpoint-recovery restores a stale snapshot."""
    bed = make_bed(sim)
    controller = ExternalController(sim)
    blocks, agents = [], []
    for agg in bed.aggs:
        block = PlainAppBlock(agg, SyncCounterApp())
        agg.add_block(block)
        agent = CheckpointingAgent(block, controller, period_us=1_000.0)
        agent.start()
        blocks.append(block)
        agents.append(agent)
    e1, s11 = bed.externals[0], bed.servers[0]
    key = Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key()
    # 10 packets over 2.5 ms: snapshots at ~1 ms and ~2 ms.
    for i in range(10):
        sim.schedule(i * 250.0, e1.send, Packet.udp(e1.ip, s11.ip, 5555, 7777))
    sim.run(until=2_600)
    for agent in agents:
        agent.stop()
    block = max(blocks, key=lambda b: b.packets)
    truth = block.state[key][0]
    snap_val = controller.latest_snapshot().get(key, [0])[0]
    assert truth == 10
    assert snap_val < truth  # the delta since the last snapshot is LOST


# ---------------------------------------------------------------------------
# Rollback (packet logging)
# ---------------------------------------------------------------------------


def test_rollback_replay_correct_at_low_rate(sim):
    bed = make_bed(sim)
    app = SyncCounterApp()
    logger = PacketLogger(bed.aggs[0], app)
    block = PlainAppBlock(bed.aggs[0], app)
    bed.aggs[0].add_block(logger)
    bed.aggs[0].add_block(block)
    e1, s11 = bed.externals[0], bed.servers[0]
    for i in range(10):
        sim.schedule(i * 1000.0, bed.aggs[0].process,
                     Packet.udp(e1.ip, s11.ip, 5555, 7777))
    sim.run_until_idle()
    assert block.packets == 10
    assert logger.log_drops == 0
    assert logger.replay_divergence(block) == 0


def test_rollback_diverges_when_channel_saturates(sim):
    """§2.2: the Tbps-vs-Gbps mismatch makes packet logging incorrect."""
    bed = make_bed(sim)
    app = SyncCounterApp()
    agg = bed.aggs[0]
    logger = PacketLogger(agg, app)
    block = PlainAppBlock(agg, app)
    agg.add_block(logger)
    agg.add_block(block)
    # Drive packets into the switch far faster than PCIe can log: 1500-byte
    # packets every 0.1 us is 120 Gbps against a 10 Gbps channel.
    pkt_template = Packet.udp(1, ip_aton("10.0.1.11"), 5555, 7777,
                              payload=b"\x00" * 1458)
    for i in range(2000):
        pkt = pkt_template.copy()
        sim.schedule(i * 0.1, agg.process, pkt)
    sim.run_until_idle()
    assert logger.log_drops > 0
    assert logger.replay_divergence(block) > 0


# ---------------------------------------------------------------------------
# Switch-to-switch chain replication
# ---------------------------------------------------------------------------


def test_switch_chain_replicates_but_reordering_corrupts():
    sim = Simulator(seed=12)
    bed = build_testbed(
        sim,
        agg_factory=lambda s, n, ip: SwitchASIC(s, n, ip),
    )
    bed.impair_fabric(LinkImpairment(jitter_us=12.0))
    head_sw, backup_sw = bed.aggs
    app = SyncCounterApp()
    head = SwitchChainHead(head_sw, app, backup_ip=backup_sw.ip)
    backup = SwitchChainBackup(backup_sw, SyncCounterApp())
    head_sw.add_block(head)
    backup_sw.add_block(backup)
    e1, s11 = bed.externals[0], bed.servers[0]
    # Force processing at the head switch directly (chain replication
    # constrains routing, which is one of its §2.2 problems).
    for i in range(50):
        pkt = Packet.udp(e1.ip, s11.ip, 5555, 7777)
        sim.schedule(i * 3.0, head_sw.process, pkt)
    sim.run_until_idle()
    key = Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key()
    assert head.state[key] == [50]
    assert backup.updates_applied > 0
    # With no sequencing, heavy reordering leaves the backup stale/wrong
    # for at least some interleavings (the Fig 6a failure).
    # We assert the mechanism works end-to-end; divergence is workload-
    # dependent, so check the memory cost claim instead:
    usage = memory_overhead(app, flows=100_000)
    assert usage["chain_bits"] == 2 * usage["single_switch_bits"]


def test_switch_chain_backup_can_go_stale():
    """Deterministically demonstrate the Fig 6a anomaly: an older update
    arriving after a newer one corrupts the unsequenced backup."""
    sim = Simulator(seed=1)
    bed = make_bed(sim)
    backup = SwitchChainBackup(bed.aggs[1], SyncCounterApp())
    bed.aggs[1].add_block(backup)
    from repro.baselines.chain_switches import CHAIN_SWITCH_PORT

    key = Packet.udp(1, 2, 3, 4).flow_key()

    def update(value):
        pkt = Packet.udp(bed.aggs[0].ip, bed.aggs[1].ip, CHAIN_SWITCH_PORT,
                         CHAIN_SWITCH_PORT,
                         payload=key.pack() + value.to_bytes(4, "big"))
        bed.aggs[1].process(pkt)

    update(5)   # newer state arrives first (reordered network)
    update(4)   # older update arrives late and silently wins
    sim.run_until_idle()
    assert backup.state[key] == [4]  # WRONG: stale value overwrote newer


# ---------------------------------------------------------------------------
# Server NFs and FTMB
# ---------------------------------------------------------------------------


def test_server_nat_translates_via_tunnel(sim):
    bed = build_testbed(sim)
    nf = ServerNat(sim, "nf", ip_aton("10.0.1.50"))
    bed.topology.add_node(nf)
    bed.topology.connect(bed.tors[0], nf)
    bed.tors[0].table.add(nf.ip, 32, [bed.tors[0].ports[-1]])
    install_nf_routes(bed, nf)
    s11, e1 = bed.servers[0], bed.externals[0]
    seen_ext, seen_int = [], []
    e1.default_handler = seen_ext.append
    s11.default_handler = seen_int.append

    inner = Packet.tcp(s11.ip, e1.ip, 7000, 80, flags=TCP_SYN)
    s11.send(tunnel_to_nf(inner, s11.ip, nf.ip))
    sim.run_until_idle()
    assert len(seen_ext) == 1
    assert seen_ext[0].ip.src == NAT_PUBLIC_IP

    e1.send(Packet.tcp(e1.ip, NAT_PUBLIC_IP, 80, 7000))
    sim.run_until_idle()
    assert len(seen_int) == 1
    assert seen_int[0].ip.dst == s11.ip


def test_ft_server_nat_waits_for_replicas(sim):
    bed = build_testbed(sim)
    replicas = []
    for i, name in enumerate(["nfr1", "nfr2"]):
        rep = ServerNat(sim, name, ip_aton(f"10.0.2.{60 + i}"))
        bed.topology.add_node(rep)
        bed.topology.connect(bed.tors[1], rep)
        bed.tors[1].table.add(rep.ip, 32, [bed.tors[1].ports[-1]])
        replicas.append(rep)
    nf = ServerNat(sim, "nf", ip_aton("10.0.1.50"),
                   replica_ips=[r.ip for r in replicas])
    bed.topology.add_node(nf)
    bed.topology.connect(bed.tors[0], nf)
    bed.tors[0].table.add(nf.ip, 32, [bed.tors[0].ports[-1]])
    install_nf_routes(bed, nf)

    s11, e1 = bed.servers[0], bed.externals[0]
    times = []
    e1.default_handler = lambda pkt: times.append(sim.now)
    inner = Packet.tcp(s11.ip, e1.ip, 7000, 80, flags=TCP_SYN)
    t0 = sim.now
    s11.send(tunnel_to_nf(inner, s11.ip, nf.ip))
    sim.run_until_idle()
    ft_latency = times[0] - t0
    # Replication adds server round trips: well above a plain NF pass
    # (~25 us of processing plus a handful of network hops).
    assert ft_latency > 60.0
    assert nf.replications_sent == 2
    assert all(7000 in rep.translations for rep in replicas)


def test_ftmb_latency_distribution():
    lat = ftmb_sample_latencies(5000, seed=1)
    lat_sorted = sorted(lat)
    median = lat_sorted[len(lat) // 2]
    p999 = lat_sorted[int(len(lat) * 0.999)]
    assert 80.0 < median < 140.0       # software middlebox regime
    assert p999 > 400.0                # heavy commit tail
    assert ftmb_sample_latencies(10, seed=2) == ftmb_sample_latencies(10, seed=2)
