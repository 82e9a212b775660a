"""Property-based fuzzing of the full protocol stack.

Hypothesis generates adversarial schedules — packet counts, gaps, fabric
loss and jitter (which reorders), an optional mid-run switch failure — and every run
must uphold the protocol's global invariants:

* the store's applied sequence number never regresses and never exceeds
  the number of updates the switches produced;
* switch-local state for a flow always equals the store's state once the
  system quiesces (every unacknowledged update is eventually retransmitted
  or superseded);
* delivered outputs never duplicate a state version (per-flow counter
  values are unique);
* the simulation quiesces (no protocol livelock).
"""

from __future__ import annotations

import struct

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import RedPlaneConfig, Simulator, deploy
from repro.core.app import AppVerdict
from repro.apps.counter import SyncCounterApp
from repro.net.links import LinkImpairment
from repro.net.packet import Packet


class EchoCounter(SyncCounterApp):
    """Counter echoing its value in the payload (observable outputs)."""

    def process(self, state, pkt, ctx, switch):
        count = state.increment("count")
        pkt.payload = struct.pack("!I", count)
        return AppVerdict.FORWARD


schedule = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**16),
    "packets": st.integers(min_value=1, max_value=15),
    "gap_us": st.sampled_from([20.0, 200.0, 2_000.0]),
    "loss": st.sampled_from([0.0, 0.03, 0.1]),
    "jitter_us": st.sampled_from([0.0, 12.0]),
    "fail_after": st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
})


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedule)
def test_protocol_invariants_under_adversarial_schedules(params):
    sim = Simulator(seed=params["seed"])
    dep = deploy(
        sim,
        EchoCounter,
        config=RedPlaneConfig(lease_period_us=100_000.0),
    )
    dep.bed.impair_fabric(LinkImpairment(drop_rate=params["loss"],
                                         jitter_us=params["jitter_us"]))
    e1, s11 = dep.bed.externals[0], dep.bed.servers[0]
    outputs = []

    def on_receive(pkt):
        (value,) = struct.unpack_from("!I", pkt.payload, 0)
        outputs.append(value)

    s11.default_handler = on_receive
    flow = Packet.udp(e1.ip, s11.ip, 5555, 7777).flow_key()

    n = params["packets"]
    for i in range(n):
        pkt = Packet.udp(e1.ip, s11.ip, 5555, 7777)
        pkt.ip.identification = i
        sim.schedule(i * params["gap_us"], e1.send, pkt)
    if params["fail_after"] is not None and params["fail_after"] < n:
        sim.schedule(params["fail_after"] * params["gap_us"] + 1.0,
                     dep.bed.topology.fail_node, dep.bed.aggs[0])

    # Long horizon: leases expire, retransmissions drain, and the run must
    # quiesce (livelock would trip the event guard).
    sim.run(until=2_000_000)
    sim.run_until_idle(max_events=3_000_000)

    # -- invariants -----------------------------------------------------------
    record = None
    for store in dep.stores:
        rec = store.records.get(flow)
        if rec is not None and rec.initialized:
            record = rec
            break
    total_counted = 0
    for engine in dep.engines.values():
        if engine.switch.failed:
            continue
        state = engine.flow_state(flow)
        if state is not None:
            total_counted = max(total_counted, state[0])

    if record is not None:
        assert 0 <= record.last_seq <= n
        # vals may be empty if a lease was granted but every write was
        # lost before reaching the store (permitted input loss).
        assert not record.vals or 0 <= record.vals[0] <= n
        # Quiesced: the live switch's state cannot be newer than the
        # store's (every write was acknowledged or retransmitted to done).
        if total_counted:
            assert record.vals[0] >= total_counted or record.vals[0] == 0

    # No duplicated counter values among delivered outputs.
    assert len(outputs) == len(set(outputs))
    # Outputs never exceed the number of inputs.
    assert all(1 <= v <= n for v in outputs)
    # Chain replicas that saw the flow agree with each other at quiescence.
    versions = {
        st_.records[flow].last_seq
        for st_ in dep.stores
        if flow in st_.records and st_.records[flow].initialized
    }
    assert len(versions) <= 1, f"replicas diverged: {versions}"


# -- statestore codec: round trips and malformed input ------------------------

import pytest

from repro.net.packet import FlowKey
from repro.core.protocol import MessageType, RedPlaneMessage
from repro.statestore.backend import FlowRecord
from repro.statestore.codec import (
    CHAIN_UPDATE,
    pack_chain_update,
    pack_record,
    unpack_chain_packet,
    unpack_chain_update,
    unpack_record,
)

flow_keys = st.builds(
    FlowKey,
    st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
    st.sampled_from([6, 17]),
    st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
)

protocol_messages = st.builds(
    RedPlaneMessage,
    seq=st.integers(0, 2**32 - 1),
    msg_type=st.sampled_from(list(MessageType)),
    flow_key=flow_keys,
    vals=st.lists(st.integers(0, 2**32 - 1), max_size=4),
    piggyback=st.one_of(st.none(), st.binary(max_size=64)),
    aux=st.integers(0, 2**16 - 1),
)


@st.composite
def flow_records(draw):
    rec = FlowRecord(
        vals=draw(st.lists(st.integers(0, 2**32 - 1), max_size=4)),
        initialized=draw(st.booleans()),
        last_seq=draw(st.integers(0, 2**32 - 1)),
        owner_ip=draw(st.one_of(st.none(), st.integers(1, 2**32 - 1))),
        lease_expiry=draw(st.floats(0, 1e12, allow_nan=False)),
    )
    for slot in draw(st.lists(st.integers(0, 2**16 - 1), max_size=3,
                              unique=True)):
        rec.snapshot_vals[slot] = draw(st.integers(0, 2**32 - 1))
        rec.snapshot_seqs[slot] = draw(st.integers(0, 2**32 - 1))
    return rec


def _same_message(a, b):
    return (a.seq == b.seq and a.msg_type is b.msg_type
            and a.flow_key == b.flow_key and a.vals == b.vals
            and a.piggyback == b.piggyback and a.aux == b.aux)


@settings(max_examples=25, deadline=None)
@given(flow_keys, flow_records(), protocol_messages,
       st.integers(1, 2**32 - 1))
def test_chain_update_roundtrip(key, rec, reply, requester_ip):
    data = pack_chain_update(key, rec, reply, requester_ip)
    out_key, state, out_reply, out_ip = unpack_chain_update(data)
    vals, initialized, last_seq, owner_ip, expiry = state
    assert out_key == key and out_ip == requester_ip
    assert vals == rec.vals
    assert initialized == rec.initialized
    assert last_seq == rec.last_seq
    assert owner_ip == rec.owner_ip
    assert expiry == rec.lease_expiry
    assert _same_message(out_reply, reply)


@settings(max_examples=25, deadline=None)
@given(flow_keys, flow_records())
def test_record_frame_roundtrip(key, rec):
    out_key, out = unpack_record(pack_record(key, rec))
    assert out_key == key
    assert out.vals == rec.vals
    assert out.initialized == rec.initialized
    assert out.last_seq == rec.last_seq
    assert out.owner_ip == rec.owner_ip
    assert out.lease_expiry == rec.lease_expiry
    assert out.snapshot_vals == rec.snapshot_vals
    assert out.snapshot_seqs == {
        slot: rec.snapshot_seqs.get(slot, 0) for slot in rec.snapshot_vals
    }
    assert len(out.pending) == 0  # volatile state never travels


_KEY = FlowKey(1, 2, 17, 10, 20)
_REPLY = RedPlaneMessage(1, MessageType.REPL_WRITE_ACK, _KEY)


def _rec(**fields):
    rec = FlowRecord(vals=[1], initialized=True, last_seq=1, owner_ip=9,
                     lease_expiry=1.0)
    for name, value in fields.items():
        setattr(rec, name, value)
    return rec


def _snap_rec(slot=0, val=0, seq=0):
    rec = _rec()
    rec.snapshot_vals[slot] = val
    rec.snapshot_seqs[slot] = seq
    return rec


#: encoder field -> (encode with the field set to v, name in the error, bits)
RANGE_CASES = {
    "message.seq": (lambda v: RedPlaneMessage(
        v, MessageType.REPL_WRITE_REQ, _KEY).pack(), "seq", 32),
    "message.vals": (lambda v: RedPlaneMessage(
        1, MessageType.REPL_WRITE_REQ, _KEY, vals=[0, v]).pack(),
        "vals[1]", 32),
    "message.aux": (lambda v: RedPlaneMessage(
        1, MessageType.SNAPSHOT_REPL_REQ, _KEY, aux=v).pack(), "aux", 16),
    "chain_update.last_seq": (lambda v: pack_chain_update(
        _KEY, _rec(last_seq=v), _REPLY, 7), "last_seq", 32),
    "chain_update.owner_ip": (lambda v: pack_chain_update(
        _KEY, _rec(owner_ip=v), _REPLY, 7), "owner_ip", 32),
    "chain_update.vals": (lambda v: pack_chain_update(
        _KEY, _rec(vals=[v]), _REPLY, 7), "vals[0]", 32),
    "chain_update.requester_ip": (lambda v: pack_chain_update(
        _KEY, _rec(), _REPLY, v), "requester_ip", 32),
    "record.last_seq": (lambda v: pack_record(
        _KEY, _rec(last_seq=v)), "last_seq", 32),
    "record.owner_ip": (lambda v: pack_record(
        _KEY, _rec(owner_ip=v)), "owner_ip", 32),
    "record.vals": (lambda v: pack_record(
        _KEY, _rec(vals=[3, v])), "vals[1]", 32),
    "record.snapshot_slot": (lambda v: pack_record(
        _KEY, _snap_rec(slot=v)), "snapshot slot", 16),
    "record.snapshot_vals": (lambda v: pack_record(
        _KEY, _snap_rec(val=v)), "snapshot_vals[0]", 32),
    "record.snapshot_seqs": (lambda v: pack_record(
        _KEY, _snap_rec(seq=v)), "snapshot_seqs[0]", 32),
}


@pytest.mark.parametrize("case", sorted(RANGE_CASES))
def test_encoders_refuse_a_value_the_wire_cannot_carry(case):
    """No silent masking: a receiver handed the sender's object must be
    handed exactly what the bytes decode to, so a value that does not
    fit is the sender's error, named, never a wrapped number."""
    encode, field, bits = RANGE_CASES[case]
    encode((1 << bits) - 1)  # the widest value fits
    for bad in (1 << bits, -1):
        with pytest.raises(ValueError) as err:
            encode(bad)
        assert f"{field}={bad} " in str(err.value)


def test_truncated_codec_input_raises_valueerror_not_struct_error():
    """Every strict prefix of a valid frame is a recoverable ValueError."""
    key = FlowKey(1, 2, 17, 10, 20)
    rec = FlowRecord(vals=[7, 8], initialized=True, last_seq=3,
                     owner_ip=9, lease_expiry=100.0)
    rec.snapshot_vals[2] = 5
    rec.snapshot_seqs[2] = 1
    reply = RedPlaneMessage(3, MessageType.REPL_WRITE_ACK, key,
                            piggyback=b"held")
    frames = [
        (unpack_chain_update, pack_chain_update(key, rec, reply, 42)),
        (unpack_record, pack_record(key, rec)),
    ]
    for unpack, data in frames:
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                unpack(data[:cut])


def test_chain_update_with_lying_reply_length_is_malformed():
    key = FlowKey(1, 2, 17, 10, 20)
    rec = FlowRecord(vals=[1], initialized=True, last_seq=1,
                     owner_ip=None, lease_expiry=0.0)
    reply = RedPlaneMessage(1, MessageType.REPL_WRITE_ACK, key)
    data = bytearray(pack_chain_update(key, rec, reply, 7))
    data[31:33] = (9999).to_bytes(2, "big")  # the head's reply_len field
    with pytest.raises(ValueError):
        unpack_chain_update(bytes(data))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 255))
def test_chain_packet_kind_byte_other_than_update_is_malformed(kind):
    """A chain packet is an update or nothing: any other first byte is a
    ValueError, never decoded as an update's body."""
    body = pack_chain_update(_KEY, _rec(), _REPLY, 7)
    data = bytes([kind]) + body
    if kind == CHAIN_UPDATE:
        assert unpack_chain_packet(data) == (
            CHAIN_UPDATE, unpack_chain_update(body))
    else:
        with pytest.raises(ValueError):
            unpack_chain_packet(data)
    with pytest.raises(ValueError):
        unpack_chain_packet(b"")
