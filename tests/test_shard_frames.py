"""Length-prefixed frame protocol: round trips, ordering, error paths."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.shard import frames
from repro.shard.frames import (
    F_ERROR,
    F_PROGRESS,
    F_RESULT,
    MAX_FRAME_BYTES,
    FrameConn,
    pack_frame,
    unpack_frame,
)


def test_the_protocol_has_exactly_three_frame_types():
    """PROGRESS* then RESULT | ERROR, all worker -> parent."""
    names = {n for n in vars(frames) if n.startswith("F_")}
    assert names == {"F_PROGRESS", "F_RESULT", "F_ERROR"}
    assert len({F_PROGRESS, F_RESULT, F_ERROR}) == 3


def test_round_trip():
    body = {"shard": 3, "now": 12.5, "items": [1, 2, 3], "name": "x"}
    ftype, decoded, consumed = unpack_frame(pack_frame(F_PROGRESS, body))
    assert ftype == F_PROGRESS
    assert decoded == body
    assert consumed == len(pack_frame(F_PROGRESS, body))


def test_key_order_survives_the_round_trip():
    """Trace-record field dicts carry semantic insertion order; a frame
    hop must not alphabetize them."""
    body = {"fields": {"zebra": 1, "alpha": 2, "mid": 3}}
    _ftype, decoded, _ = unpack_frame(pack_frame(F_RESULT, body))
    assert list(decoded["fields"]) == ["zebra", "alpha", "mid"]
    raw = pack_frame(F_RESULT, body)
    assert raw[5:].decode().index("zebra") < raw[5:].decode().index("alpha")


def test_truncated_and_malformed_frames_raise():
    good = pack_frame(F_PROGRESS, {"shard": 0})
    with pytest.raises(ValueError):
        unpack_frame(good[:3])  # missing length prefix
    with pytest.raises(ValueError):
        unpack_frame(good[:-2])  # body shorter than the prefix claims
    with pytest.raises(ValueError, match="JSON object"):
        unpack_frame(b"\x00\x00\x00\x03\x01[]")  # array, not an object
    with pytest.raises(ValueError, match="malformed"):
        unpack_frame(b"\x00\x00\x00\x03\x01{x")  # invalid JSON


def test_unknown_frame_type_rejected_both_ways():
    with pytest.raises(ValueError):
        pack_frame(99, {})
    raw = bytearray(pack_frame(F_ERROR, {}))
    raw[4] = 99
    with pytest.raises(ValueError):
        unpack_frame(bytes(raw))


def test_oversized_frame_rejected():
    # Forge the length prefix rather than building a 256MB payload.
    raw = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + bytes([F_RESULT])
    with pytest.raises(ValueError):
        unpack_frame(raw + b"{}")


def test_frame_conn_over_a_pipe():
    a, b = multiprocessing.Pipe()
    left, right = FrameConn(a), FrameConn(b)
    left.send(F_PROGRESS, {"shard": 1, "now": 100.0})
    ftype, body = right.recv()
    assert (ftype, body["shard"]) == (F_PROGRESS, 1)
    right.send(F_ERROR, {"error": "boom"})
    assert left.recv() == (F_ERROR, {"error": "boom"})
    left.close()
    right.close()


def test_payload_is_compact_json():
    raw = pack_frame(F_RESULT, {"a": 1, "b": [2, 3]})
    assert json.loads(raw[5:]) == {"a": 1, "b": [2, 3]}
    assert b" " not in raw[5:]
