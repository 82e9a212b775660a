"""Simplified TCP endpoints for the failover experiment (Fig 14).

An iperf-like bulk transfer with the pieces that matter for failure
recovery: slow start, AIMD congestion avoidance, duplicate-ACK fast
retransmit, and exponential-backoff retransmission timeouts. When a switch
on the path fails, segments black-hole until routing reroutes *and*
RedPlane migrates the NAT state; the sender sits in RTO backoff and the
goodput timeline shows exactly the outage-and-recovery shape of Fig 14.

Segments are macro-segments (configurable size) so that a multi-second
100 Gbps transfer stays within a tractable event count; goodput is
reported in Gbit/s per sampling bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net import constants
from repro.net.hosts import Host
from repro.net.packet import Packet, TCP_ACK, TCP_SYN
from repro.net.simulator import Simulator
from typing import Optional

#: Default macro-segment payload (bytes). 128 KiB keeps a 100 Gbps flow
#: near ~100k events/simulated-second.
DEFAULT_SEGMENT_BYTES = 128 * 1024

#: Initial/minimum retransmission timeout (us) — Linux-like 200 ms floor.
RTO_MIN_US = 200_000.0
RTO_MAX_US = 2_000_000.0


class TcpReceiver(Host):
    """Cumulative-ACK receiver.

    Sequence and acknowledgment numbers are in *segments*, not bytes, so
    that multi-gigabyte macro-segment transfers never wrap the 32-bit wire
    fields (a real stack wraps modulo 2^32; segment numbering sidesteps
    the modular arithmetic without changing the dynamics).
    """

    def __init__(self, sim: Simulator, name: str, ip: int, port: int = 5201) -> None:
        super().__init__(sim, name, ip)
        self.port = port
        self.expected_seq = 0           # next expected segment number
        self.bytes_received = 0
        self.out_of_order: Dict[int, int] = {}
        #: The established connection's remote (ip, port); segments from
        #: any other 4-tuple belong to no connection and are ignored (a
        #: real stack would answer them with RST).
        self.peer: Optional[tuple] = None
        self.rejected_foreign = 0
        self.bind(port, self._on_segment)

    def _on_segment(self, pkt: Packet) -> None:
        src = (pkt.ip.src, pkt.l4.sport)
        if pkt.l4.has(TCP_SYN):
            # Connection establishment (or re-establishment): lock on.
            self.peer = src
            self.expected_seq = 0
            self.bytes_received = 0
            self.out_of_order.clear()
            synack = Packet.tcp(self.ip, pkt.ip.src, self.port, pkt.l4.sport,
                                seq=0, ack=0, flags=TCP_SYN | TCP_ACK)
            self.send(synack)
            return
        if self.peer is None or src != self.peer:
            self.rejected_foreign += 1
            return
        seg_len = len(pkt.payload)
        if pkt.l4.seq == self.expected_seq:
            self.expected_seq += 1
            self.bytes_received += seg_len
            # Absorb any buffered in-order continuation.
            while self.expected_seq in self.out_of_order:
                length = self.out_of_order.pop(self.expected_seq)
                self.expected_seq += 1
                self.bytes_received += length
        elif pkt.l4.seq > self.expected_seq:
            self.out_of_order[pkt.l4.seq] = seg_len
        ack = Packet.tcp(
            self.ip, pkt.ip.src, self.port, pkt.l4.sport,
            seq=0, ack=self.expected_seq, flags=TCP_ACK,
        )
        self.send(ack)


class TcpSender(Host):
    """AIMD bulk sender with fast retransmit and RTO backoff."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ip: int,
        dst_ip: int,
        dst_port: int = 5201,
        sport: int = 40001,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        goodput_bucket_us: float = 100_000.0,
        max_cwnd: float = 128.0,
    ) -> None:
        super().__init__(sim, name, ip)
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.sport = sport
        self.segment_bytes = segment_bytes
        self.goodput_bucket_us = goodput_bucket_us
        #: Receive-window equivalent: caps the congestion window, like the
        #: receiver buffer does for a real iperf flow.
        self.max_cwnd = max_cwnd
        self.bind(sport, self._on_ack)

        self.cwnd = 1.0                 # in segments
        self.ssthresh = 64.0
        self.established = False
        self.next_seq = 0               # next new segment number to send
        self.acked = 0                  # highest cumulative ack (segments)
        self.inflight: Dict[int, float] = {}  # seq -> send time
        self.dup_acks = 0
        self.rto_us = RTO_MIN_US
        self._rto_event = None
        self.running = False
        self.retransmits = 0
        self.timeouts = 0
        #: bucket start time -> bytes acked in that bucket
        self.goodput_buckets: Dict[int, int] = {}

    # -- control -------------------------------------------------------------

    def start(self) -> None:
        """Open the connection: SYN handshake, then bulk transfer."""
        self.running = True
        self.established = False
        self._send_syn()

    def _send_syn(self) -> None:
        if not self.running or self.established:
            return
        syn = Packet.tcp(self.ip, self.dst_ip, self.sport, self.dst_port,
                         seq=0, flags=TCP_SYN)
        self.send(syn)
        # Retry establishment like a real stack (SYN timer).
        self.sim.schedule(RTO_MIN_US, self._send_syn)

    def stop(self) -> None:
        self.running = False
        if self._rto_event is not None:
            self.sim.cancel(self._rto_event)
            self._rto_event = None

    # -- sending -------------------------------------------------------------

    def _fill_window(self) -> None:
        if not self.running:
            return
        while self.next_seq - self.acked < int(self.cwnd):
            self._transmit(self.next_seq)
            self.next_seq += 1

    def _transmit(self, seq: int) -> None:
        pkt = Packet.tcp(
            self.ip, self.dst_ip, self.sport, self.dst_port,
            seq=seq, flags=TCP_ACK, payload=b"\x00" * self.segment_bytes,
        )
        self.inflight[seq] = self.sim.now
        self.send(pkt)
        self._arm_rto()

    def _arm_rto(self) -> None:
        if self._rto_event is not None:
            self.sim.cancel(self._rto_event)
        self._rto_event = self.sim.schedule(self.rto_us, self._on_rto)

    # -- receiving acks --------------------------------------------------------

    def _on_ack(self, pkt: Packet) -> None:
        if not self.running:
            return
        if pkt.l4.has(TCP_SYN):
            # SYN-ACK: the connection is up; start filling the window.
            if not self.established:
                self.established = True
                self._fill_window()
            return
        ack = pkt.l4.ack
        if ack > self.acked:
            newly = (ack - self.acked) * self.segment_bytes
            self._credit_goodput(newly)
            self.acked = ack
            self.dup_acks = 0
            self.rto_us = RTO_MIN_US
            for seq in [s for s in self.inflight if s < ack]:
                del self.inflight[seq]
            # Congestion control: slow start then AIMD, window-capped.
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0
            else:
                self.cwnd += 1.0 / self.cwnd
            self.cwnd = min(self.cwnd, self.max_cwnd)
            if self.inflight:
                self._arm_rto()
            elif self._rto_event is not None:
                self.sim.cancel(self._rto_event)
                self._rto_event = None
            self._fill_window()
        else:
            self.dup_acks += 1
            if self.dup_acks == 3:
                # Fast retransmit + multiplicative decrease.
                self.ssthresh = max(2.0, self.cwnd / 2.0)
                self.cwnd = self.ssthresh
                self.retransmits += 1
                self._transmit(self.acked)

    def _on_rto(self) -> None:
        self._rto_event = None
        if not self.running or not self.inflight and self.next_seq == self.acked:
            return
        self.timeouts += 1
        self.ssthresh = max(2.0, self.cwnd / 2.0)
        self.cwnd = 1.0
        self.rto_us = min(self.rto_us * 2.0, RTO_MAX_US)
        self.dup_acks = 0
        # Go-back-N from the last cumulative ack.
        self.inflight.clear()
        self.next_seq = self.acked
        self._fill_window()

    # -- goodput accounting ------------------------------------------------------

    def _credit_goodput(self, nbytes: int) -> None:
        bucket = int(self.sim.now // self.goodput_bucket_us)
        self.goodput_buckets[bucket] = self.goodput_buckets.get(bucket, 0) + nbytes

    def goodput_series_gbps(self, until_us: float) -> List[Tuple[float, float]]:
        """(time_s, goodput_gbps) per bucket from 0 to ``until_us``."""
        out = []
        buckets = int(until_us // self.goodput_bucket_us)
        for bucket in range(buckets):
            nbytes = self.goodput_buckets.get(bucket, 0)
            gbps = nbytes * 8 / (self.goodput_bucket_us * 1000.0)
            out.append((bucket * self.goodput_bucket_us / 1e6, gbps))
        return out
