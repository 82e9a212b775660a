"""Partitioning flow state across state-store shards.

The external state store is partitioned by flow key (§5.1.1); a switch
identifies the responsible server by hashing the flow key and looking up a
preconfigured table. Each shard is served by a chain-replication group
whose head receives requests and whose tail sends replies.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.net.packet import FlowKey


@dataclass(frozen=True)
class ShardAddress:
    """Where a switch sends requests for one shard: the chain head."""

    ip: int
    udp_port: int


class ShardMap:
    """Deterministic flow-key -> shard mapping, identical on every switch.

    One object is shared by reference with every switch's engine, so
    repointing a shard's head after chain failover (:meth:`set_head`) is
    one in-place update.
    """

    def __init__(self, shard_addresses: Sequence[ShardAddress]) -> None:
        if not shard_addresses:
            raise ValueError("need at least one shard")
        self._shards: List[ShardAddress] = list(shard_addresses)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def shard_index(self, key: FlowKey) -> int:
        return zlib.crc32(b"shard:" + key.pack()) % len(self._shards)

    def shard_for(self, key: FlowKey) -> ShardAddress:
        return self._shards[self.shard_index(key)]

    def addresses(self) -> List[ShardAddress]:
        return list(self._shards)

    def set_head(self, shard_index: int, address: ShardAddress) -> None:
        if not 0 <= shard_index < len(self._shards):
            raise IndexError(f"no shard {shard_index}")
        self._shards[shard_index] = address
