"""The paper's stateful in-switch applications (§6, Table 1)."""

from repro.apps.counter import AsyncCounterApp, SyncCounterApp
from repro.apps.epc_sgw import (
    EpcSgwApp,
    GTP_PORT,
    is_signaling,
    make_data_packet,
    make_signaling_packet,
)
from repro.apps.firewall import (
    FirewallApp,
    STATE_CLOSED,
    STATE_ESTABLISHED,
    STATE_NEW,
)
from repro.apps.heavy_hitter import HeavyHitterApp, vlan_store_key
from repro.apps.kv_store import (
    KV_SERVICE_IP,
    KV_UDP_PORT,
    KvStoreApp,
    OP_READ,
    OP_UPDATE,
    make_request,
    parse_reply,
)
from repro.apps.load_balancer import LoadBalancerApp, VIP
from repro.apps.nat import NAT_PUBLIC_IP, NatApp, is_internal
from repro.apps.sequencer import (
    SEQUENCER_IP,
    SEQUENCER_PORT,
    SequencerApp,
    make_sequenced_request,
    parse_stamp,
)
from repro.apps.superspreader import SPREAD_STORE_KEY, SuperSpreaderApp
from repro.apps.syn_defense import SynDefenseApp, syn_cookie

#: Every §6 application by name, as a zero-argument factory deployable
#: with defaults (``deploy(sim, BUILTIN_APPS[name])``) — the set
#: ``repro.tools verify --all`` sweeps.
BUILTIN_APPS = {
    "async_counter": AsyncCounterApp,
    "sync_counter": SyncCounterApp,
    "epc_sgw": EpcSgwApp,
    "firewall": FirewallApp,
    "heavy_hitter": lambda: HeavyHitterApp(vlans=[10, 20]),
    "kv_store": KvStoreApp,
    "load_balancer": LoadBalancerApp,
    "nat": NatApp,
    "sequencer": SequencerApp,
    "superspreader": SuperSpreaderApp,
    "syn_defense": SynDefenseApp,
}

__all__ = [
    "BUILTIN_APPS",
    "AsyncCounterApp",
    "SyncCounterApp",
    "EpcSgwApp",
    "GTP_PORT",
    "is_signaling",
    "make_data_packet",
    "make_signaling_packet",
    "FirewallApp",
    "STATE_CLOSED",
    "STATE_ESTABLISHED",
    "STATE_NEW",
    "HeavyHitterApp",
    "vlan_store_key",
    "KV_SERVICE_IP",
    "KV_UDP_PORT",
    "KvStoreApp",
    "OP_READ",
    "OP_UPDATE",
    "make_request",
    "parse_reply",
    "LoadBalancerApp",
    "VIP",
    "NAT_PUBLIC_IP",
    "NatApp",
    "is_internal",
    "SEQUENCER_IP",
    "SEQUENCER_PORT",
    "SequencerApp",
    "make_sequenced_request",
    "parse_stamp",
    "SPREAD_STORE_KEY",
    "SuperSpreaderApp",
    "SynDefenseApp",
    "syn_cookie",
]
