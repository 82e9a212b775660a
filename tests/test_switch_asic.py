"""Tests for the switch ASIC: pipeline, mirroring, pktgen, control plane."""

import pytest

from repro.net import constants
from repro.net.links import Link, SinkNode
from repro.net.packet import Packet, ip_aton
from repro.net.simulator import Simulator
from repro.switch.asic import SwitchASIC
from repro.switch.pipeline import ControlBlock, PipelineContext, Verdict


class TagBlock(ControlBlock):
    """Test block: tags packets; can drop/punt/consume on request."""

    def __init__(self, action="forward"):
        self.action = action
        self.seen = 0

    def process(self, ctx, switch):
        self.seen += 1
        ctx.pkt.meta["tagged"] = True
        if self.action == "drop":
            ctx.drop()
            return False
        if self.action == "punt":
            ctx.punt()
            return False
        if self.action == "consume":
            ctx.consume()
            return False
        if self.action == "stop":
            return False
        return True


def make_switch(sim):
    sw = SwitchASIC(sim, "sw", ip=ip_aton("10.254.0.9"))
    sink = SinkNode(sim, "sink")
    Link(sim, sw.new_port(), sink.new_port())
    sw.table.add(0, 0, [sw.ports[0]])
    return sw, sink


def test_forward_through_pipeline():
    sim = Simulator()
    sw, sink = make_switch(sim)
    block = TagBlock()
    sw.add_block(block)
    sw.process(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert block.seen == 1
    assert len(sink.received) == 1
    assert sink.received[0].meta["tagged"]


def test_drop_verdict():
    sim = Simulator()
    sw, sink = make_switch(sim)
    sw.add_block(TagBlock("drop"))
    sw.process(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert sink.received == []


def test_block_ordering_and_early_stop():
    sim = Simulator()
    sw, _sink = make_switch(sim)
    first = TagBlock("stop")
    second = TagBlock()
    sw.add_block(first)
    sw.add_block(second)
    sw.process(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert first.seen == 1
    assert second.seen == 0


def test_packet_to_switch_ip_dropped_if_unconsumed():
    sim = Simulator()
    sw, sink = make_switch(sim)
    sw.process(Packet.udp(1, sw.ip, 3, 4))
    sim.run_until_idle()
    assert sink.received == []
    assert sim.metrics.value(
        "switch.drops", switch="sw", reason="to_self") == 1


def test_emitted_packets_forwarded():
    sim = Simulator()
    sw, sink = make_switch(sim)

    class Emitter(ControlBlock):
        def process(self, ctx, switch):
            extra = Packet.udp(5, 6, 7, 8)
            ctx.emit(extra)
            ctx.consume()
            return False

    sw.add_block(Emitter())
    sw.process(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert len(sink.received) == 1
    assert sink.received[0].ip.src == 5


def test_protocol_byte_accounting():
    sim = Simulator()
    sw, _sink = make_switch(sim)
    plain = Packet.udp(1, 2, 3, 4)
    sw.process(plain)
    proto = Packet.udp(1, 2, 3, 4, payload=b"\x00" * 36)
    proto.meta["rp_kind"] = "request"
    sw.process(proto)
    sim.run_until_idle()
    assert sw.bytes_original_out == plain.byte_size()
    assert sw.bytes_protocol_out == proto.byte_size()
    assert 0.0 < sw.protocol_byte_fraction() < 1.0


def test_buffer_accounting_and_overflow():
    sim = Simulator()
    sw, _sink = make_switch(sim)
    sw.buffer_bytes = 100
    sw.buffer_acquire(60)
    sw.buffer_acquire(30)
    assert sw.peak_buffer_occupancy == 90
    sw.buffer_release(50)
    assert sw.buffer_occupancy == 40
    with pytest.raises(RuntimeError):
        sw.buffer_acquire(100)


def test_mirror_session_circulates_until_released():
    sim = Simulator()
    sw, _sink = make_switch(sim)
    passes = []

    def handler(state):
        passes.append(sim.now)
        return sim.now + 10.0

    session = sw.new_mirror_session(handler)
    big = Packet.udp(1, 2, 3, 4, payload=b"\x00" * 1000)
    copy = session.mirror(big, None, 10.0)
    # Truncated to the RedPlane header, not full size.
    assert sw.buffer_occupancy == constants.MIRROR_TRUNCATE_BYTES
    sim.run(until=35.0)
    assert passes == [10.0, 20.0, 30.0]
    session.release(copy)
    sim.run_until_idle()
    assert len(passes) == 3
    assert sw.buffer_occupancy == 0
    assert session.active_copies == 0


def test_mirror_copy_dies_with_switch():
    sim = Simulator()
    sw, _sink = make_switch(sim)
    # Circulate forever.
    session = sw.new_mirror_session(lambda state: sim.now + 1.0)
    session.mirror(Packet.udp(1, 2, 3, 4), None, 1.0)
    sim.schedule(5, sw.fail)
    sim.run(until=100)
    assert sw.buffer_occupancy == 0


def test_pktgen_periodic_batches():
    sim = Simulator()
    sw, sink = make_switch(sim)
    built = []

    def builder(i):
        built.append(i)
        return Packet.udp(1, 2, 3, 4)

    sw.pktgen.configure(period_us=100, batch_size=4, builder=builder)
    sw.pktgen.start()
    sim.run(until=350)
    sw.pktgen.stop()
    sim.run_until_idle()
    assert sw.pktgen.batches_generated == 3
    assert built == [0, 1, 2, 3] * 3
    assert len(sink.received) == 12


def test_pktgen_requires_configuration():
    sim = Simulator()
    sw, _sink = make_switch(sim)
    with pytest.raises(RuntimeError):
        sw.pktgen.start()


def test_pktgen_stops_on_switch_failure():
    sim = Simulator()
    sw, sink = make_switch(sim)
    sw.pktgen.configure(100, 1, lambda i: Packet.udp(1, 2, 3, 4))
    sw.pktgen.start()
    sim.schedule(250, sw.fail)
    sim.run(until=1000)
    assert sw.pktgen.batches_generated == 2


def test_control_plane_serializes_ops():
    sim = Simulator()
    sw, _sink = make_switch(sim)
    done = []
    sw.control_plane.submit(lambda: done.append(sim.now))
    sw.control_plane.submit(lambda: done.append(sim.now))
    sim.run_until_idle()
    assert len(done) == 2
    # Second op waits for the first: spaced by one op cost.
    assert done[1] - done[0] == pytest.approx(constants.CONTROL_PLANE_OP_US)


def test_punt_and_reinject_roundtrip():
    sim = Simulator()
    sw, sink = make_switch(sim)
    reinjected = []

    def handler(pkt):
        reinjected.append(sim.now)
        sw.control_plane.reinject(pkt)

    sw.control_plane.punt_handler = handler

    class Punter(ControlBlock):
        def process(self, ctx, switch):
            if not ctx.pkt.meta.get("seen_cpu"):
                ctx.pkt.meta["seen_cpu"] = True
                ctx.punt()
                return False
            return True

    sw.add_block(Punter())
    sw.process(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert len(sink.received) == 1
    # Slow path: at least one PCIe round trip plus a CP op.
    assert sink.receive_times[0] > constants.CONTROL_PLANE_OP_US


def test_punt_without_handler_counts():
    sim = Simulator()
    sw, _sink = make_switch(sim)

    class AlwaysPunt(ControlBlock):
        def process(self, ctx, switch):
            ctx.punt()
            return False

    sw.add_block(AlwaysPunt())
    sw.process(Packet.udp(1, 2, 3, 4))
    sim.run_until_idle()
    assert sim.metrics.value(
        "switch.drops", switch="sw", reason="unhandled_punt") == 1


def test_cp_ops_dropped_when_switch_failed():
    sim = Simulator()
    sw, _sink = make_switch(sim)
    done = []
    sw.control_plane.submit(done.append, 1)
    sw.fail()
    sim.run_until_idle()
    assert done == []
