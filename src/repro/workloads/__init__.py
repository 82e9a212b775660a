"""Workload generation: synthetic traces and TCP endpoints."""

from repro.workloads.failures import FailureSchedule, InjectedFault
from repro.workloads.harness import EchoResponder, RttProbe
from repro.workloads.tcp import TcpReceiver, TcpSender
from repro.workloads.traces import (
    SIZE_BUCKETS,
    TraceEvent,
    epc_trace,
    five_tuple_trace,
    kv_trace,
    packet_size,
    replay,
    vlan_trace,
)

__all__ = [
    "FailureSchedule",
    "InjectedFault",
    "EchoResponder",
    "RttProbe",
    "TcpReceiver",
    "TcpSender",
    "SIZE_BUCKETS",
    "TraceEvent",
    "epc_trace",
    "five_tuple_trace",
    "kv_trace",
    "packet_size",
    "replay",
    "vlan_trace",
]
