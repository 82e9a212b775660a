"""Regression test: reordered chain updates must not regress replicas.

Found by the protocol fuzzer: store-to-store chain updates cross the same
best-effort fabric as everything else, so an older update can arrive at a
replica *after* a newer one. Replicas apply an update only if its
(sequence, lease-expiry) version is not older than what they hold, while
still forwarding the acknowledgment (which carries piggybacked outputs of
a real request).
"""

from repro.core.protocol import MessageType, RedPlaneMessage
from repro.net.packet import FlowKey
from repro.net.simulator import Simulator
from repro.statestore.server import StateStoreNode

from tests.test_statestore import FakeSwitch, KEY, micro_net


def make_state(vals, last_seq, owner, expiry):
    return (vals, True, last_seq, owner, expiry)


def apply_chain(node, state, reply_seq=0):
    reply = RedPlaneMessage(reply_seq, MessageType.REPL_WRITE_ACK, KEY)
    node._apply_chain(KEY, state, reply, requester_ip=1)


def test_reordered_older_update_ignored():
    sim = Simulator()
    _hub, (sw,), (node,) = micro_net(sim)
    node.successor_ip = None
    apply_chain(node, make_state([5], last_seq=5, owner=9, expiry=100.0))
    apply_chain(node, make_state([4], last_seq=4, owner=9, expiry=90.0))
    rec = node.records[KEY]
    assert rec.vals == [5]
    assert rec.last_seq == 5


def test_equal_seq_newer_lease_wins():
    sim = Simulator()
    _hub, (sw,), (node,) = micro_net(sim)
    node.successor_ip = None
    apply_chain(node, make_state([1], last_seq=1, owner=9, expiry=100.0))
    # A later lease grant at the same sequence (new owner) must apply...
    apply_chain(node, make_state([1], last_seq=1, owner=7, expiry=200.0))
    assert node.records[KEY].owner_ip == 7
    # ...and a reordered older grant must not claw ownership back.
    apply_chain(node, make_state([1], last_seq=1, owner=9, expiry=150.0))
    assert node.records[KEY].owner_ip == 7


def test_stale_update_still_forwards_reply():
    """Even when the replica ignores the state, the ack must travel on."""
    sim = Simulator()
    _hub, (sw,), stores = micro_net(sim, num_stores=2)
    mid, tail = stores
    mid.successor_ip = tail.ip
    tail.successor_ip = None
    apply_chain(mid, make_state([5], last_seq=5, owner=9, expiry=100.0))
    sim.run_until_idle()
    sw.acks.clear()
    # A stale chain update reaches mid: ignored, but the reply propagates
    # through the tail back to the requesting switch.
    reply = RedPlaneMessage(3, MessageType.REPL_WRITE_ACK, KEY,
                            piggyback=b"\x01\x00\x02ab")
    mid._apply_chain(KEY, make_state([3], 3, 9, 50.0), reply, sw.ip)
    sim.run_until_idle()
    assert mid.records[KEY].vals == [5]      # not regressed
    assert len(sw.acks) == 1                  # ack still delivered
    assert sw.acks[0].piggyback == b"\x01\x00\x02ab"


def test_snapshot_slot_epoch_guard_on_replicas():
    sim = Simulator()
    _hub, (sw,), (node,) = micro_net(sim)
    node.successor_ip = None

    def snap_reply(epoch, value):
        return RedPlaneMessage(epoch, MessageType.SNAPSHOT_REPL_ACK, KEY,
                               vals=[value], aux=3)

    node._apply_chain(KEY, make_state([], 0, None, 0.0), snap_reply(5, 50), 1)
    node._apply_chain(KEY, make_state([], 0, None, 0.0), snap_reply(4, 40), 1)
    rec = node.records[KEY]
    assert rec.snapshot_vals[3] == 50
    assert rec.snapshot_seqs[3] == 5
