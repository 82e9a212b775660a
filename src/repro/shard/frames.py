"""Length-prefixed report frames for the shard worker protocol.

Workers tell the parent that they are still advancing and, last, what
they computed or why they could not (``PROGRESS``* then ``RESULT`` |
``ERROR``); the parent never answers. Each message is one
self-delimiting frame::

    !I   frame length (type byte + payload, not counting this prefix)
    !B   frame type (one of the ``F_*`` constants)
    ...  payload: compact JSON (UTF-8, key order preserved)

The same codec discipline as :mod:`repro.statestore.codec`: module-level
:class:`struct.Struct` instances, and every ``unpack_*`` raises
:class:`ValueError` on malformed input (truncated buffers, unknown
types, bad JSON) rather than leaking :class:`struct.error` — a torn
frame from a dying worker is a recoverable condition for the parent.

Frames are transport-agnostic bytes. In process mode they travel over
``multiprocessing.Connection.send_bytes``/``recv_bytes`` (which preserve
message boundaries, so one ``recv_bytes`` is one frame).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Tuple

_LEN = struct.Struct("!I")
_TYPE = struct.Struct("!B")

#: Worker -> parent: reached a ``pace()`` boundary (payload: shard, now).
#: One-way liveness for the parent's stall detector; never answered.
F_PROGRESS = 1
#: Worker -> parent: the shard's final result payload.
F_RESULT = 2
#: Worker -> parent: unrecoverable failure (payload: error text).
F_ERROR = 3

_KNOWN_TYPES = frozenset({F_PROGRESS, F_RESULT, F_ERROR})

#: Hard ceiling on one frame's payload; a result frame for a merged-off
#: campaign stays far below this, and anything larger is a protocol bug.
MAX_FRAME_BYTES = 256 * 1024 * 1024


def pack_frame(ftype: int, body: Dict[str, Any]) -> bytes:
    """Serialize one frame: length prefix + type byte + JSON payload."""
    if ftype not in _KNOWN_TYPES:
        raise ValueError(f"unknown frame type {ftype}")
    # Insertion order is semantic for trace-record field dicts riding in
    # result frames (the identity contract compares canonical JSONL), so
    # frames must round-trip key order, never re-sort it.
    payload = json.dumps(body, separators=(",", ":")).encode()
    length = _TYPE.size + len(payload)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame too large ({length} bytes)")
    return _LEN.pack(length) + _TYPE.pack(ftype) + payload


def unpack_frame(data: bytes) -> Tuple[int, Dict[str, Any], int]:
    """Decode one frame from the head of ``data``.

    Returns ``(type, body, consumed_bytes)``; raises :class:`ValueError`
    on truncation, unknown type, or malformed payload.
    """
    if len(data) < _LEN.size:
        raise ValueError("truncated frame: missing length prefix")
    (length,) = _LEN.unpack_from(data, 0)
    if length < _TYPE.size or length > MAX_FRAME_BYTES:
        raise ValueError(f"bad frame length {length}")
    end = _LEN.size + length
    if len(data) < end:
        raise ValueError(
            f"truncated frame: need {end} bytes, have {len(data)}"
        )
    (ftype,) = _TYPE.unpack_from(data, _LEN.size)
    if ftype not in _KNOWN_TYPES:
        raise ValueError(f"unknown frame type {ftype}")
    raw = data[_LEN.size + _TYPE.size : end]
    try:
        body = json.loads(raw.decode()) if raw else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed frame payload: {exc}") from exc
    if not isinstance(body, dict):
        raise ValueError("frame payload must be a JSON object")
    return ftype, body, end


class FrameConn:
    """Typed frame send/recv over a ``multiprocessing`` connection.

    Thin wrapper: one frame per underlying message, decode errors
    surface as :class:`ValueError`.
    """

    def __init__(self, conn: Any) -> None:
        self._conn = conn

    def send(self, ftype: int, body: Dict[str, Any]) -> None:
        self._conn.send_bytes(pack_frame(ftype, body))

    def recv(self) -> Tuple[int, Dict[str, Any]]:
        data = self._conn.recv_bytes()
        ftype, body, consumed = unpack_frame(data)
        if consumed != len(data):
            raise ValueError(
                f"trailing bytes after frame ({len(data) - consumed})"
            )
        return ftype, body

    def close(self) -> None:
        self._conn.close()
