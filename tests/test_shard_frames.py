"""Worker report messages: three types, pipe round trips, error paths."""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.shard import frames
from repro.shard.frames import F_ERROR, F_PROGRESS, F_RESULT, FrameConn


def _pipe():
    a, b = multiprocessing.Pipe()
    return FrameConn(a), FrameConn(b)


def test_the_protocol_has_exactly_three_frame_types():
    """PROGRESS* then RESULT | ERROR, all worker -> parent."""
    names = {n for n in vars(frames) if n.startswith("F_")}
    assert names == {"F_PROGRESS", "F_RESULT", "F_ERROR"}
    assert len({F_PROGRESS, F_RESULT, F_ERROR}) == 3


def test_frame_conn_over_a_pipe():
    """A body arrives as the objects it held: a log entry's tuples stay
    tuples."""
    left, right = _pipe()
    left.send(F_PROGRESS, {"shard": 1, "now": 100.0})
    ftype, body = right.recv()
    assert (ftype, body["shard"]) == (F_PROGRESS, 1)
    right.send(F_ERROR, {"error": "boom"})
    assert left.recv() == (F_ERROR, {"error": "boom"})
    entry = (12.5, 3, 0, "record", ("rp.ack", ("uid", "seq"), (7, 2)))
    left.send(F_RESULT, {"log": [entry]})
    assert right.recv() == (F_RESULT, {"log": [entry]})
    left.close()
    right.close()


def test_key_order_survives_the_round_trip():
    """Trace-record field dicts carry semantic insertion order; a pipe
    hop must not alphabetize them."""
    left, right = _pipe()
    left.send(F_RESULT, {"fields": {"zebra": 1, "alpha": 2, "mid": 3}})
    _ftype, body = right.recv()
    assert list(body["fields"]) == ["zebra", "alpha", "mid"]
    left.close()
    right.close()


def test_truncated_and_malformed_frames_raise():
    """Whatever a dying or broken worker puts on the pipe, the parent's
    ``recv`` raises ``ValueError``: bytes that do not unpickle, and any
    message that is not a ``(known type, dict)`` pair."""
    a, b = multiprocessing.Pipe()
    conn = FrameConn(b)
    for raw, match in [
        (b"\x00\x00", "does not unpickle"),  # torn
        (pickle.dumps("hello"), "pair"),
        (pickle.dumps((F_RESULT, [1, 2])), "pair"),  # body not a dict
        (pickle.dumps((99, {})), "pair"),  # unknown type
        (pickle.dumps(([F_RESULT], {})), "pair"),  # unhashable type
        (pickle.dumps((F_RESULT, {}, "extra")), "pair"),
    ]:
        a.send_bytes(raw)
        with pytest.raises(ValueError, match=match):
            conn.recv()
    a.close()
    b.close()
