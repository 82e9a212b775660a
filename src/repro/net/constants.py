"""Timing and capacity constants calibrating the simulation to the testbed.

All times are in microseconds of *simulated* time. The values are chosen so
that failure-free latencies land in the regime the paper reports (e.g. a
median end-to-end RTT of 7-8 us for a switch NAT) while preserving the
relative costs between components; see DESIGN.md "Calibration".
"""

# --- Link layer ------------------------------------------------------------

#: One-way propagation latency of an intra-datacenter cable (us).
LINK_LATENCY_US = 0.35

#: Default link bandwidth in Gbit/s (testbed uses 100 GbE everywhere except
#: the management network).
LINK_BANDWIDTH_GBPS = 100.0

#: Management-network bandwidth (used by the external-controller baseline).
MGMT_BANDWIDTH_GBPS = 1.0

#: Extra delay applied to reordered packets (us).
REORDER_EXTRA_US = 12.0

# --- Switch ASIC -----------------------------------------------------------

#: Time for a packet to traverse one switch pipeline (ingress+egress), us.
SWITCH_PIPELINE_US = 0.6

#: Latency of one egress-to-egress mirror recirculation pass (us).
MIRROR_PASS_US = 1.0

#: One-way latency of the ASIC-to-CPU PCIe channel (us).
PCIE_ONEWAY_US = 4.0

#: Control-plane software processing time for one table operation (us).
#: Dominates the 99th-percentile latency of new-flow packets (Fig 8).
CONTROL_PLANE_OP_US = 88.0

#: ASIC-to-CPU channel bandwidth (Gbit/s); O(10 Gbps) per the paper.
PCIE_BANDWIDTH_GBPS = 10.0

#: Total switch packet buffer (bytes); Tofino has a few tens of MB.
SWITCH_BUFFER_BYTES = 22 * 1024 * 1024

#: Maximum forwarding rate observed through one aggregation switch (Mpps).
#: The paper measures 122.5 Mpps as the aggregation-to-core bottleneck.
SWITCH_MAX_FORWARD_MPPS = 122.5

# --- State store -----------------------------------------------------------

#: Software processing time of a request at one state-store server (us).
STORE_PROC_US = 0.8

#: One-way latency between two chain-replication servers (different racks).
CHAIN_HOP_US = 2.4

#: Packet-processing capacity of one state-store server (Mpps). Three
#: servers bound Sync-Counter at roughly half of 122.5 Mpps (Fig 12).
STORE_CAPACITY_MPPS = 20.5

# --- RedPlane protocol -----------------------------------------------------

#: Lease duration granted by the state store (us) == 1 second.
LEASE_PERIOD_US = 1_000_000.0

#: Interval between explicit lease renewals for read-centric flows (us).
LEASE_RENEW_INTERVAL_US = 500_000.0

#: Retransmission timeout for unacknowledged replication requests (us).
RETRANSMIT_TIMEOUT_US = 48.0

#: Retransmission backoff: each resend multiplies the timeout by this
#: factor, up to the cap below (us), so a request buffered at the store
#: for a full lease period does not generate tens of thousands of
#: duplicates.
RETRANSMIT_BACKOFF = 2.0
RETRANSMIT_TIMEOUT_MAX_US = 5_000.0

#: Safety margin subtracted from the switch's view of its own lease so
#: it always expires locally before it does at the store (us).
LEASE_MARGIN_US = 10_000.0

#: Default snapshot period for bounded-inconsistency mode (us) == 1 ms.
SNAPSHOT_PERIOD_US = 1_000.0

# --- Routing / failure handling -------------------------------------------

#: Time for a neighbour switch to detect a link/node failure and reroute
#: (BFD-style detection plus route withdrawal), us.
FAILURE_DETECT_US = 350_000.0

#: Time for routing to converge after a failed element recovers, us.
RECOVERY_DETECT_US = 350_000.0

# --- Hosts ------------------------------------------------------------------

#: Host NIC + kernel-bypass stack processing time per packet (us).
HOST_PROC_US = 0.5

#: Server-based network function processing time per packet (us); server
#: NFs see 7-14x the median latency of switch NFs (Fig 8).
SERVER_NF_PROC_US = 21.0

# --- Simulator host memory ---------------------------------------------------

#: Entry-count bound of each per-run memo the simulator keeps (route
#: caches, flow tags, flow-cache entries); a structure that reaches it is
#: cleared. Keeps host memory proportional to the active working set in
#: million-flow campaigns. Not a property of the modelled testbed.
CACHE_CAP = 262_144
