#!/usr/bin/env python
"""Scenario: a fault-tolerant in-switch key-value store.

NetCache-style systems serve hot objects from switch registers at line
rate; Table 1 lists "losing key-value pairs" as their failure mode. With
RedPlane, reads stay on the line-rate fast path while each update is
synchronously replicated, so a switch failure loses nothing — and the
update ratio of the workload directly controls the replication load
(what Fig 13 sweeps).

Run:  python examples/inswitch_kv_cache.py
"""

from repro import Simulator, deploy
from repro.apps import (
    KvStoreApp,
    OP_READ,
    OP_UPDATE,
    make_request,
    parse_reply,
)
from repro.workloads.traces import kv_trace


def main() -> None:
    sim = Simulator(seed=5)
    dep = deploy(sim, KvStoreApp, num_shards=3, chain_length=1)
    client = dep.bed.externals[0]
    replies = []
    client.default_handler = lambda pkt: replies.append(parse_reply(pkt))

    # Populate a few objects, then run a mixed read/update workload.
    for key, value in [(1, 100), (2, 200), (3, 300)]:
        client.send(make_request(client.ip, OP_UPDATE, key, value))
    sim.run_until_idle()
    base = sim.now
    for event in kv_trace(500, num_keys=3, src_ip=client.ip,
                          update_ratio=0.1, seed=5):
        sim.schedule_at(base + event.time_us, client.send, event.pkt)
    sim.run_until_idle()

    reads = [r for r in replies if r[0] == OP_READ]
    updates = [r for r in replies if r[0] == OP_UPDATE]
    print(f"served {len(reads)} reads and {len(updates)} updates "
          f"({len(replies)} replies total)")
    owner = max(dep.engines.values(), key=lambda e: e.stats["app_packets"])
    print(f"fast-path reads (no store interaction): "
          f"{owner.stats['fast_path_forwards']}")
    print(f"synchronously replicated updates: "
          f"{owner.stats['writes_replicated']}")

    # Kill the switch serving the objects; read everything back.
    print(f"\n--- failing {owner.switch.name} ---")
    last_values = {}
    for r in replies:
        last_values[r[1]] = r[2]
    dep.bed.topology.fail_node(owner.switch)
    sim.run(until=sim.now + 400_000)

    check = []
    client.default_handler = lambda pkt: check.append(parse_reply(pkt))
    for key in (1, 2, 3):
        client.send(make_request(client.ip, OP_READ, key))
        sim.run_until_idle()

    print("values after failover (vs last written):")
    ok = True
    for op, key, value in check:
        expected = last_values.get(key)
        status = "✔" if value == expected else "LOST"
        ok &= value == expected
        print(f"  key {key}: {value} (expected {expected}) {status}")
    assert ok, "no key-value pair may be lost"
    assert sorted(key for _op, key, _value in check) == [1, 2, 3], \
        "every key must be read back"
    print("no key-value pairs lost across the switch failure ✔")


if __name__ == "__main__":
    main()
