"""Backend conformance suite: every storage backend honors the contract.

The :class:`~repro.statestore.backend.StateStoreBackend` contract
(ordered records, get-or-create semantics, idempotent commits, honest
``wipe``/``recover`` durability) is what the transport layer builds its
write-ahead discipline on. The parametrized tests below hold both
shipped backends to it; WAL-specific behavior (torn tails, compaction)
follows.
"""

import os

import pytest

from repro.net.packet import FlowKey
from repro.net.simulator import Simulator
from repro.statestore.backend import InMemoryBackend
from repro.statestore.wal import WALBackend, WALCorruptionError


class _Node:
    """Minimal stand-in for the owning StateStoreNode (bind target)."""

    def __init__(self, sim, name="n0"):
        self.sim = sim
        self.name = name


def _key(i):
    return FlowKey(0x0A000000 + i, 0x0B000000 + i, 17, 1000 + i, 2000 + i)


def _populate(backend, n=3):
    """Write ``n`` records the way the transport layer does."""
    for i in range(n):
        key = _key(i)
        rec = backend.record(key)
        rec.vals = [i, i * 7]
        rec.initialized = True
        rec.last_seq = i + 1
        rec.owner_ip = 0x0A000001
        rec.lease_expiry = 5_000.0 + i
        rec.snapshot_vals[3] = 100 + i
        rec.snapshot_seqs[3] = i
        backend.commit(key, rec)


@pytest.fixture(params=["memory", "wal"])
def backend(request, tmp_path):
    if request.param == "memory":
        b = InMemoryBackend()
    else:
        b = WALBackend(str(tmp_path / "store"), snapshot_every=8)
    b.bind(_Node(Simulator()))
    yield b
    b.close()


# -- the contract every backend must satisfy ----------------------------------


def test_records_iterate_in_insertion_order(backend):
    _populate(backend, n=5)
    assert list(backend.records) == [_key(i) for i in range(5)]


def test_get_and_record_semantics(backend):
    assert backend.get(_key(0)) is None
    rec = backend.record(_key(0))
    assert backend.get(_key(0)) is rec          # get never creates
    assert backend.record(_key(0)) is rec       # record is get-or-create
    assert not rec.initialized and rec.vals == []


def test_commit_is_idempotent(backend):
    _populate(backend, n=1)
    rec = backend.get(_key(0))
    backend.commit(_key(0), rec)  # chain retransmissions re-commit
    backend.commit(_key(0), rec)
    assert len(backend.records) == 1
    if backend.durable:
        backend.wipe()
        assert backend.recover() == 1
        assert backend.get(_key(0)).vals == [0, 0]


def test_wipe_drops_all_volatile_state(backend):
    _populate(backend)
    backend.wipe()
    assert len(backend.records) == 0
    assert backend.get(_key(0)) is None


def test_recover_is_honest_about_durability(backend):
    """A backend either restores acknowledged state or reports zero."""
    _populate(backend)
    backend.wipe()
    restored = backend.recover()
    if backend.durable:
        assert restored == 3
        for i in range(3):
            rec = backend.get(_key(i))
            assert rec.vals == [i, i * 7]
            assert rec.initialized
            assert rec.last_seq == i + 1
            assert rec.owner_ip == 0x0A000001
            assert rec.lease_expiry == 5_000.0 + i
            assert rec.snapshot_vals == {3: 100 + i}
            assert rec.snapshot_seqs == {3: i}
    else:
        assert restored == 0
        assert len(backend.records) == 0


def test_recovered_pending_queue_is_empty(backend):
    """Buffered requests are transport state: never persisted (§4.2)."""
    _populate(backend, n=1)
    backend.get(_key(0)).pending.append(("msg", 1, 0))
    backend.commit(_key(0), backend.get(_key(0)))
    backend.wipe()
    backend.recover()
    if backend.durable:
        assert len(backend.get(_key(0)).pending) == 0


def test_describe_is_a_string(backend):
    assert isinstance(backend.describe(), str)
    assert backend.name in ("memory", "wal")


# -- WAL specifics: torn tails, compaction, last-write-wins -------------------


@pytest.fixture
def wal(tmp_path):
    b = WALBackend(str(tmp_path / "store"), snapshot_every=4)
    b.bind(_Node(Simulator()))
    yield b
    b.close()


def test_wal_recovery_replays_latest_version(wal):
    key = _key(0)
    rec = wal.record(key)
    for seq in range(1, 4):
        rec.vals = [seq * 10]
        rec.last_seq = seq
        wal.commit(key, rec)
    wal.wipe()
    assert wal.recover() == 1
    assert wal.get(key).vals == [30]
    assert wal.get(key).last_seq == 3


def test_wal_tolerates_torn_tail(wal):
    _populate(wal, n=2)
    wal.close()
    with open(wal.log_path, "ab") as fh:
        fh.write(b"\x00\x00\x01\xff" + b"torn")  # frame cut mid-write
    wal.wipe()
    assert wal.recover() == 2
    assert wal.get(_key(1)).vals == [1, 7]


def test_wal_stops_at_corrupt_frame_keeping_earlier_records(wal):
    _populate(wal, n=2)
    wal.close()
    with open(wal.log_path, "ab") as fh:
        garbage = b"\xde\xad\xbe\xef" * 12
        fh.write(len(garbage).to_bytes(4, "big") + garbage)
    wal.wipe()
    assert wal.recover() == 2  # the corrupt tail frame is discarded


def _torn_tails(wal):
    return wal.node.sim.metrics.total("store.backend.wal_torn_tails")


def test_wal_counts_a_torn_tail_across_wipe_and_recover(wal):
    _populate(wal, n=3)
    wal.wipe()
    assert wal.recover() == 3 and _torn_tails(wal) == 0
    size = os.path.getsize(wal.log_path)
    wal.close()
    with open(wal.log_path, "r+b") as fh:
        fh.truncate(size - 5)  # the crash cut the last append short
    wal.wipe()
    assert wal.recover() == 2
    assert _torn_tails(wal) == 1
    assert wal.get(_key(2)) is None


def test_wal_recovery_cuts_a_torn_tail_so_a_second_crash_loses_nothing(
        tmp_path):
    """Commit 0, 1, 2; a crash tears record 2; recover; commit 3; crash
    again. Left in the log, the torn frame's length prefix would swallow
    the start of record 3 at the second recovery: record 3, acknowledged,
    would be gone and torn record 2 back ({0, 1, 2}, two torn tails)."""
    wal = WALBackend(str(tmp_path / "store"), snapshot_every=1000)
    wal.bind(_Node(Simulator()))
    gauge = lambda: wal.node.sim.metrics.total("store.backend.wal_bytes")
    on_disk = lambda: os.path.getsize(wal.log_path)

    def commit(i):
        rec = wal.record(_key(i))
        rec.vals = [i]
        rec.last_seq = i + 1
        wal.commit(_key(i), rec)
        assert gauge() == on_disk()

    for i in range(3):
        commit(i)
    wal.wipe()
    with open(wal.log_path, "r+b") as fh:
        fh.truncate(on_disk() - 5)  # the crash cut the last append short
    assert wal.recover() == 2 and gauge() == on_disk()
    commit(3)
    wal.wipe()
    assert wal.recover() == 3 and gauge() == on_disk()
    assert sorted(wal.get(_key(i)).vals[0] for i in range(4)
                  if wal.get(_key(i)) is not None) == [0, 1, 3]
    assert _torn_tails(wal) == 1
    wal.close()


def test_wal_refuses_mid_file_corruption_instead_of_dropping_records(wal):
    _populate(wal, n=3)
    wal.close()
    with open(wal.log_path, "rb") as fh:
        data = bytearray(fh.read())
    frame = len(data) // 3
    # Garble the second frame's value count (byte 13 of the record head)
    # so it overruns the frame; the length prefix survives, so the third
    # frame is still found, and still decodes.
    data[frame + 4 + 13] = 0xFF
    with open(wal.log_path, "wb") as fh:
        fh.write(data)
    wal.wipe()
    with pytest.raises(WALCorruptionError) as err:
        wal.recover()
    assert "records.wal" in str(err.value)
    assert f"byte offset {frame}" in str(err.value)
    assert _torn_tails(wal) == 0


def test_wal_compaction_snapshots_and_truncates_log(wal):
    # snapshot_every=4: ten commits force at least two compactions.
    key = _key(0)
    rec = wal.record(key)
    for seq in range(1, 11):
        rec.vals = [seq]
        rec.last_seq = seq
        wal.commit(key, rec)
    assert os.path.exists(wal.snapshot_path)
    assert os.path.getsize(wal.log_path) < os.path.getsize(wal.snapshot_path) * 4
    wal.wipe()
    assert wal.recover() == 1
    assert wal.get(key).vals == [10]


def test_wal_bytes_gauge_equals_file_sizes_without_a_stat_per_commit(
        wal, monkeypatch):
    """``store.backend.wal_bytes`` is kept from running byte counts; it
    must read what ``getsize`` reads after every commit — across
    appends, compaction, a wipe, a torn tail and the recovery after it,
    and for a backend opened on a directory that already has files."""
    gauge = lambda b: b.node.sim.metrics.total("store.backend.wal_bytes")
    on_disk = lambda b: sum(
        os.path.getsize(p) for p in (b.log_path, b.snapshot_path)
        if os.path.exists(p))
    stats = []
    real_getsize = os.path.getsize

    def commit(b, i):
        rec = b.record(_key(i))
        rec.vals = [i] * (1 + i % 3)  # frames of different lengths
        rec.last_seq = i + 1
        with monkeypatch.context() as patch:
            patch.setattr(os.path, "getsize",
                          lambda p: stats.append(p) or real_getsize(p))
            b.commit(_key(i), rec)
        assert gauge(b) == on_disk(b) > 0

    for i in range(10):  # snapshot_every=4: two compactions on the way
        commit(wal, i)
    assert os.path.exists(wal.snapshot_path)
    assert len(stats) == 2  # the handle's first open, not the commits
    wal.wipe()
    commit(wal, 10)  # a commit before any recover(): log reopened
    size = os.path.getsize(wal.log_path)
    wal.close()
    with open(wal.log_path, "r+b") as fh:
        fh.truncate(size - 5)  # the crash cut the last append short
    wal.wipe()
    assert wal.recover() == 10 and _torn_tails(wal) == 1
    assert gauge(wal) == on_disk(wal)
    commit(wal, 11)
    # A second backend on the same directory starts from the files' sizes.
    wal.close()
    other = WALBackend(wal.directory, snapshot_every=4)
    other.bind(_Node(Simulator()))
    try:
        commit(other, 12)
    finally:
        other.close()


def test_wal_recover_from_snapshot_plus_log(wal):
    # 5 commits with snapshot_every=4: a snapshot and a one-frame log.
    for i in range(5):
        key = _key(i)
        rec = wal.record(key)
        rec.vals = [i]
        rec.last_seq = 1
        wal.commit(key, rec)
    wal.wipe()
    assert wal.recover() == 5
    assert [wal.get(_key(i)).vals for i in range(5)] == [[i] for i in range(5)]

