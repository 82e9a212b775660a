"""Persistent log-structured backend: append-only WAL + snapshots.

:class:`WALBackend` keeps the live records in memory (serving reads at
DRAM speed, like the reference backend) and makes every commit durable
by appending a length-prefixed record frame to a write-ahead log before
the transport layer replies or propagates. Every ``snapshot_every``
appends it writes a full snapshot of the record set and truncates the
log (compaction), bounding both recovery time and disk growth.

Crash model: :meth:`~WALBackend.wipe` drops the in-memory dict and the
open log handle — everything a process crash loses — while the files
stay on disk. :meth:`~WALBackend.recover` rebuilds the record set by
loading the snapshot and replaying the log on top, tolerating a torn
tail (a last frame cut mid-write by the crash, or undecodable, is
discarded, counted and truncated off the file, which is safe: a torn
frame was never followed by a reply, so no switch saw that state
acknowledged; the truncation keeps the next append from landing behind
the torn frame's length prefix). An undecodable
frame with well-formed frames *after* it is not a torn tail: committed,
acknowledged records sit behind it, and recovery refuses with a
:class:`WALCorruptionError` rather than silently dropping them.

Frames are self-delimiting (``u32`` length + body) and the body format
is :func:`repro.statestore.codec.pack_record` — shared with the
snapshot file, so both replay paths are one loop.
"""

from __future__ import annotations

import os
import struct
from typing import Dict, Optional

from repro.net.packet import FlowKey
from repro.statestore.backend import FlowRecord, StateStoreBackend
from repro.statestore.codec import pack_record, unpack_record

_FRAME_LEN = struct.Struct("!I")


class WALCorruptionError(ValueError):
    """A frame file is corrupt in the middle: an undecodable frame is
    followed by well-formed ones, so dropping it as a torn tail would
    discard committed records."""


def _read_frames(path: str):
    """Yield ``(byte offset, body)`` per frame of a frame file. A frame
    the end of the file cuts short comes out with the bytes it has (too
    few to decode)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return
    offset = 0
    while offset < len(data):
        start = offset
        length = 0
        if offset + _FRAME_LEN.size <= len(data):
            (length,) = _FRAME_LEN.unpack_from(data, offset)
        offset += _FRAME_LEN.size + length
        yield start, data[start + _FRAME_LEN.size : offset]


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class WALBackend(StateStoreBackend):
    """Append-only write-ahead log with periodic snapshot + compaction."""

    name = "wal"
    durable = True

    def __init__(self, directory: str, snapshot_every: int = 64) -> None:
        super().__init__()
        self.directory = directory
        self.snapshot_every = snapshot_every
        self._records: Dict[FlowKey, FlowRecord] = {}
        self._log_fh = None
        #: Running sizes of the two files, so ``store.backend.wal_bytes``
        #: costs no ``stat`` per commit. Re-read from disk wherever the
        #: files can have changed behind the backend's back: when the log
        #: handle is (re)opened and in :meth:`recover`.
        self._log_bytes = 0
        self._snapshot_bytes = 0
        self._appends_since_snapshot = 0
        self._c_appends = None
        self._c_snapshots = None
        self._c_replayed = None
        self._c_torn = None
        self._g_bytes = None

    # -- paths / plumbing ---------------------------------------------------

    @property
    def log_path(self) -> str:
        return os.path.join(self.directory, "records.wal")

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.directory, "records.snap")

    def bind(self, node) -> None:
        super().bind(node)
        os.makedirs(self.directory, exist_ok=True)
        m = node.sim.metrics
        self._c_appends = m.counter("store.backend.wal_appends", node=node.name)
        self._c_snapshots = m.counter(
            "store.backend.wal_snapshots", node=node.name)
        self._c_replayed = m.counter(
            "store.backend.wal_replayed", node=node.name)
        self._c_torn = m.counter(
            "store.backend.wal_torn_tails", node=node.name)
        self._g_bytes = m.gauge("store.backend.wal_bytes", node=node.name)

    def _log_handle(self):
        if self._log_fh is None:
            os.makedirs(self.directory, exist_ok=True)
            self._log_fh = open(self.log_path, "ab")
            self._stat_sizes()
        return self._log_fh

    def _stat_sizes(self) -> None:
        """Read both running sizes back from the files (cold paths only)."""
        self._log_bytes = _size(self.log_path)
        self._snapshot_bytes = _size(self.snapshot_path)

    def _update_size_gauge(self) -> None:
        if self._g_bytes is not None:
            self._g_bytes.set(self._log_bytes + self._snapshot_bytes)

    # -- backend contract ---------------------------------------------------

    @property
    def records(self) -> Dict[FlowKey, FlowRecord]:
        return self._records

    def commit(self, key: FlowKey, rec: FlowRecord) -> None:
        body = pack_record(key, rec)
        fh = self._log_handle()
        self._log_bytes += fh.write(_FRAME_LEN.pack(len(body)) + body)
        fh.flush()
        if self._c_appends is not None:
            self._c_appends.inc()
        self._appends_since_snapshot += 1
        if self._appends_since_snapshot >= self.snapshot_every:
            self._write_snapshot()
        self._update_size_gauge()

    def _write_snapshot(self) -> None:
        """Dump every record, then truncate the log (compaction)."""
        tmp = self.snapshot_path + ".tmp"
        written = 0
        with open(tmp, "wb") as fh:
            for key, rec in self._records.items():
                body = pack_record(key, rec)
                written += fh.write(_FRAME_LEN.pack(len(body)) + body)
        os.replace(tmp, self.snapshot_path)
        self._snapshot_bytes = written
        # The snapshot supersedes every logged frame: start the log over.
        if self._log_fh is not None:
            self._log_fh.close()
        self._log_fh = open(self.log_path, "wb")
        self._log_bytes = 0
        self._appends_since_snapshot = 0
        if self._c_snapshots is not None:
            self._c_snapshots.inc()

    def wipe(self) -> None:
        self._records.clear()
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None
        self._appends_since_snapshot = 0

    def recover(self) -> int:
        """Rebuild the record set: snapshot first, then log replay.

        A short or undecodable *last* frame is a torn tail: dropped,
        counted in ``store.backend.wal_torn_tails``, and cut off the file
        so the next append starts on a frame boundary (left in place, its
        length prefix would swallow the next frame at the next recovery).
        One with a well-formed frame after it raises
        :class:`WALCorruptionError`.
        """
        self._records.clear()
        replayed = torn = 0
        for path in (self.snapshot_path, self.log_path):
            bad: Optional[int] = None
            for offset, body in _read_frames(path):
                try:
                    key, rec = unpack_record(body)
                except ValueError:
                    if bad is None:
                        bad = offset
                    continue
                if bad is not None:
                    raise WALCorruptionError(
                        f"{path}: undecodable frame at byte offset {bad} "
                        f"is followed by a well-formed frame at {offset}: "
                        f"mid-file corruption, not a torn tail"
                    )
                self._records[key] = rec
                replayed += 1
            if bad is not None:
                os.truncate(path, bad)
                torn += 1
        if self._c_replayed is not None:
            self._c_replayed.inc(replayed)
            self._c_torn.inc(torn)
        self._stat_sizes()
        self._update_size_gauge()
        return len(self._records)

    def describe(self) -> str:
        return f"wal({self.directory})"

    def close(self) -> None:
        if self._log_fh is not None:
            self._log_fh.close()
            self._log_fh = None
