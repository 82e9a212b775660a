"""Table 1: the impact of a switch failure on each application class —
demonstrated, not just tabulated.

For every application we run the same scenario twice: (a) the app with
switch-local state only, where the failure produces exactly the impact
column of Table 1 (broken connections, lost key-value pairs, inaccurate
detection); and (b) the RedPlane-enabled app, where the replacement switch
restores the state and the impact disappears.
"""

from __future__ import annotations

from repro import Simulator, deploy
from repro.apps import (
    EpcSgwApp,
    FirewallApp,
    HeavyHitterApp,
    KvStoreApp,
    NatApp,
    NAT_PUBLIC_IP,
    OP_READ,
    OP_UPDATE,
    install_kv_routes,
    install_nat_routes,
    make_data_packet,
    make_request,
    make_signaling_packet,
    parse_reply,
)
from repro.apps import (
    SequencerApp,
    SynDefenseApp,
    install_sequencer_routes,
    make_sequenced_request,
    parse_stamp,
)
from repro.baselines import PlainAppBlock
from repro.net.packet import Packet, TCP_ACK, TCP_SYN
from repro.net.topology import build_testbed
from repro.switch.asic import SwitchASIC

from _bench_utils import print_header, print_rows

DETECT = 350_000.0


def _fail_active(sim, bed, activity):
    owner = max(bed.aggs, key=activity)
    bed.topology.fail_node(owner)
    sim.run(until=sim.now + 400_000)


def _plain_bed(sim, app_factory, routes=None):
    bed = build_testbed(sim, agg_factory=lambda s, n, ip: SwitchASIC(s, n, ip))
    if routes:
        routes(bed)
    blocks = {}
    for agg in bed.aggs:
        block = PlainAppBlock(agg, app_factory())
        agg.add_block(block)
        blocks[agg.name] = block
    return bed, blocks


def scenario_nat(redplane: bool) -> bool:
    """Returns True if the established connection survives the failure."""
    sim = Simulator(seed=41)
    if redplane:
        dep = deploy(sim, NatApp)
        install_nat_routes(dep.bed)
        bed = dep.bed
        activity = lambda a: dep.engines[a.name].stats["app_packets"]
    else:
        bed, blocks = _plain_bed(sim, NatApp, install_nat_routes)
        activity = lambda a: blocks[a.name].packets
    s11, e1 = bed.servers[0], bed.externals[0]
    seen = []
    s11.default_handler = seen.append
    s11.send(Packet.tcp(s11.ip, e1.ip, 7000, 80, flags=TCP_SYN))
    sim.run_until_idle()
    _fail_active(sim, bed, activity)
    e1.send(Packet.tcp(e1.ip, NAT_PUBLIC_IP, 80, 7000, flags=TCP_ACK))
    sim.run_until_idle()
    return len(seen) == 1


def scenario_firewall(redplane: bool) -> bool:
    sim = Simulator(seed=42)
    if redplane:
        dep = deploy(sim, FirewallApp)
        bed = dep.bed
        activity = lambda a: dep.engines[a.name].stats["app_packets"]
    else:
        bed, blocks = _plain_bed(sim, FirewallApp)
        activity = lambda a: blocks[a.name].packets
    s11, e1 = bed.servers[0], bed.externals[0]
    seen = []
    s11.default_handler = seen.append
    s11.send(Packet.tcp(s11.ip, e1.ip, 7000, 80, flags=TCP_SYN))
    sim.run_until_idle()
    _fail_active(sim, bed, activity)
    e1.send(Packet.tcp(e1.ip, s11.ip, 80, 7000, flags=TCP_ACK))
    sim.run_until_idle()
    return len(seen) == 1


def scenario_epc(redplane: bool) -> bool:
    sim = Simulator(seed=43)
    if redplane:
        dep = deploy(sim, EpcSgwApp)
        bed = dep.bed
        activity = lambda a: dep.engines[a.name].stats["app_packets"]
    else:
        bed, blocks = _plain_bed(sim, EpcSgwApp)
        activity = lambda a: blocks[a.name].packets
    e1, s11 = bed.externals[0], bed.servers[0]
    seen = []
    s11.default_handler = seen.append
    e1.send(make_signaling_packet(e1.ip, s11.ip, user_id=5, new_teid=777))
    sim.run_until_idle()
    _fail_active(sim, bed, activity)
    e1.send(make_data_packet(e1.ip, s11.ip, user_id=5, teid=777))
    sim.run_until_idle()
    from repro.apps import is_signaling

    data = [p for p in seen if not is_signaling(p)]
    return len(data) == 1


def scenario_kv(redplane: bool) -> bool:
    sim = Simulator(seed=44)
    if redplane:
        dep = deploy(sim, KvStoreApp)
        install_kv_routes(dep.bed)
        bed = dep.bed
        activity = lambda a: dep.engines[a.name].stats["app_packets"]
    else:
        bed, blocks = _plain_bed(sim, KvStoreApp, install_kv_routes)
        activity = lambda a: blocks[a.name].packets
    e1 = bed.externals[0]
    replies = []
    e1.default_handler = lambda pkt: replies.append(parse_reply(pkt))
    e1.send(make_request(e1.ip, OP_UPDATE, key=7, value=1234))
    sim.run_until_idle()
    _fail_active(sim, bed, activity)
    e1.send(make_request(e1.ip, OP_READ, key=7))
    sim.run_until_idle()
    return bool(replies) and replies[-1] == (OP_READ, 7, 1234)


def scenario_hh(redplane: bool) -> bool:
    """Accurate detection: is the heavy flow's estimate preserved?"""
    sim = Simulator(seed=45)
    packets = 40
    if redplane:
        dep = deploy(sim, lambda: HeavyHitterApp(vlans=[10], threshold=10 ** 6))
        bed = dep.bed
        apps = dep.apps
    else:
        bed, blocks = _plain_bed(sim, lambda: HeavyHitterApp(
            vlans=[10], threshold=10 ** 6))
        apps = {name: block.app for name, block in blocks.items()}
    e1, s11 = bed.externals[0], bed.servers[0]
    for i in range(packets):
        sim.schedule(i * 10.0, e1.send,
                     Packet.udp(e1.ip, s11.ip, 5555, 7777, vlan=10))
    sim.run(until=5_000)
    if redplane:
        for rep in dep.replicators.values():
            rep.stop()
    sim.run_until_idle()
    active = max(bed.aggs, key=lambda a: apps[a.name].packets_sketched)
    standby = next(a for a in bed.aggs if a is not active)
    key = Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key()
    if not redplane:
        # Fail-stop loses the sketch: the replacement switch estimates 0.
        return apps[standby.name].estimate(10, key) >= packets * 0.9
    # RedPlane: restore the replacement switch's sketch from the store's
    # snapshots (bounded inconsistency: within one period of the truth).
    from repro.apps.heavy_hitter import vlan_store_key

    store = [st for st in bed.store_servers][0]
    restored_app = apps[standby.name]
    for row in range(3):
        rec = store.records.get(vlan_store_key(10, row))
        if rec is None:
            return False
        values = [rec.snapshot_vals.get(i, 0) for i in range(64)]
        restored_app.sketches[10][row].cp_install(values)
    return restored_app.estimate(10, key) >= packets * 0.9


def scenario_syn_defense(redplane: bool) -> bool:
    """SYN-flood defense: does a verified client stay verified?"""
    sim = Simulator(seed=46)
    if redplane:
        dep = deploy(sim, SynDefenseApp)
        bed = dep.bed
        activity = lambda a: dep.engines[a.name].stats["app_packets"]
    else:
        bed, blocks = _plain_bed(sim, SynDefenseApp)
        activity = lambda a: blocks[a.name].packets
    e1, s11 = bed.externals[0], bed.servers[0]
    challenges, inside = [], []
    e1.default_handler = challenges.append
    s11.default_handler = inside.append
    e1.send(Packet.tcp(e1.ip, s11.ip, 7000, 80, flags=TCP_SYN, seq=5))
    sim.run_until_idle()
    cookie = challenges[0].l4.seq
    e1.send(Packet.tcp(e1.ip, s11.ip, 7000, 80, flags=TCP_ACK,
                       ack=(cookie + 1) & 0xFFFFFFFF))
    sim.run_until_idle()
    _fail_active(sim, bed, activity)
    e1.send(Packet.tcp(e1.ip, s11.ip, 7000, 80, flags=TCP_SYN))
    sim.run_until_idle()
    return len(inside) == 1  # the verified client's SYN passes


def scenario_sequencer(redplane: bool) -> bool:
    """In-network sequencer: do stamps stay monotone across the failure?"""
    sim = Simulator(seed=47)
    if redplane:
        dep = deploy(sim, SequencerApp)
        install_sequencer_routes(dep.bed)
        bed = dep.bed
        activity = lambda a: dep.engines[a.name].stats["app_packets"]
    else:
        bed, blocks = _plain_bed(sim, SequencerApp, install_sequencer_routes)
        activity = lambda a: blocks[a.name].packets
    e1, s11 = bed.externals[0], bed.servers[0]
    stamps = []
    s11.default_handler = lambda pkt: stamps.append(parse_stamp(pkt)[1])
    for i in range(4):
        sim.schedule(i * 200.0, e1.send,
                     make_sequenced_request(e1.ip, group=1, dst_ip=s11.ip))
    sim.run_until_idle()
    _fail_active(sim, bed, activity)
    for i in range(4):
        sim.schedule(i * 200.0, e1.send,
                     make_sequenced_request(e1.ip, group=1, dst_ip=s11.ip))
    sim.run_until_idle()
    return stamps == sorted(stamps) and len(set(stamps)) == len(stamps)


SCENARIOS = [
    ("NAT", "connection broken", scenario_nat),
    ("Stateful firewall", "connection broken", scenario_firewall),
    ("SYN flood defense", "dropping valid packets", scenario_syn_defense),
    ("EPC-SGW", "active session broken", scenario_epc),
    ("In-network sequencer", "incorrect sequencing", scenario_sequencer),
    ("In-network KV store", "losing key-value pairs", scenario_kv),
    ("HH detection", "inaccurate detection", scenario_hh),
]


def test_table1(run_once):
    def experiment():
        return SCENARIOS, {
            name: (fn(False), fn(True)) for name, _impact, fn in SCENARIOS
        }

    table, outcomes = run_once(experiment)
    print_header("Table 1 — impact of switch failures, demonstrated")
    rows = []
    for name, impact, _fn in table:
        without, with_rp = outcomes[name]
        rows.append({
            "application": name,
            "paper impact": impact,
            "w/o RedPlane": "OK (bug!)" if without else "impact reproduced",
            "w/ RedPlane": "survives" if with_rp else "FAILS (bug!)",
        })
    print_rows(rows, ["application", "paper impact", "w/o RedPlane",
                      "w/ RedPlane"])

    for name, (without, with_rp) in outcomes.items():
        assert not without, f"{name}: failure should break the plain app"
        assert with_rp, f"{name}: RedPlane should mask the failure"
