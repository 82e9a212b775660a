"""Report messages of the shard worker protocol.

Workers tell the parent that they are still advancing and, last, what
they computed or why they could not (``PROGRESS``* then ``RESULT`` |
``ERROR``); the parent never answers. Each message is one ``(type,
body)`` pair, ``type`` one of the ``F_*`` constants and ``body`` a dict,
put on a ``multiprocessing.Connection``, which pickles it and frames it
as one message. The worker is a fork of the parent, so nothing from
outside the process tree is ever unpickled.

:meth:`FrameConn.recv` raises :class:`ValueError` for a message that
does not unpickle or is not a ``(known type, dict)`` pair — a torn
message from a dying worker is a recoverable condition for the parent.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Tuple

#: Worker -> parent: reached a ``pace()`` boundary (body: shard, now).
#: One-way liveness for the parent's stall detector; never answered.
F_PROGRESS = 1
#: Worker -> parent: the shard's final result.
F_RESULT = 2
#: Worker -> parent: unrecoverable failure (body: error text).
F_ERROR = 3

_KNOWN_TYPES = frozenset({F_PROGRESS, F_RESULT, F_ERROR})


class FrameConn:
    """Typed ``(type, body)`` send/recv over a ``multiprocessing``
    connection: one message per frame."""

    def __init__(self, conn: Any) -> None:
        self._conn = conn

    def send(self, ftype: int, body: Dict[str, Any]) -> None:
        self._conn.send((ftype, body))

    def recv(self) -> Tuple[int, Dict[str, Any]]:
        data = self._conn.recv_bytes()
        try:
            message = pickle.loads(data)
        except Exception as exc:
            raise ValueError(
                f"message does not unpickle ({len(data)} bytes): {exc!r}"
            ) from exc
        if not (
            type(message) is tuple and len(message) == 2
            and type(message[0]) is int and message[0] in _KNOWN_TYPES
            and isinstance(message[1], dict)
        ):
            raise ValueError(
                f"not a (known type, dict) pair: {repr(message)[:80]}"
            )
        return message

    def close(self) -> None:
        self._conn.close()
