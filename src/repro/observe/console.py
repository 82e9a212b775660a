"""The live campaign health console: ``repro.tools watch``.

Renders the NDJSON heartbeat stream a campaign writes (see
:mod:`repro.observe.heartbeat`) as one aligned line per snapshot, either
over a finished file or tailing a growing one (``--follow``) while a
campaign runs in another process.

Sharded campaigns write one heartbeat file per worker
(``heartbeat.shard0.ndjson``, ...); passing several files merges their
streams into one console, each line labeled with its source. Complete
files merge in simulated-time order; in follow mode each poll's batch
is time-sorted (a global sort is impossible while files still grow).

This module runs *outside* the simulation — it only ever reads a file —
so its polling sleep touches no simulator state and no determinism
contract. Rendering is a pure function of the snapshot dicts: the same
file always renders to the same text, which is what the console test
asserts.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, IO, List, Optional, Sequence, Union

#: Seconds between polls of a followed file.
POLL_S = 0.25

_HEADER = (f"{'sim time':>10} {'events':>9} {'ev/ms':>8} {'pend':>6} "
           f"{'backlog':>9} {'retx':>5} {'acks':>6} {'leases':>6} "
           f"{'recov':>5} {'drops':>5} {'faults':>6} {'deliv':>7}")


#: Width of the source-label column in merged (multi-file) mode.
_LABEL_W = 10


def render_header(labeled: bool = False) -> str:
    """Column header matching :func:`render_snapshot`."""
    if labeled:
        return f"{'source':>{_LABEL_W}} {_HEADER}"
    return _HEADER


def source_label(path: str) -> str:
    """Short per-file label: ``heartbeat.shard0.ndjson`` -> ``shard0``."""
    name = os.path.basename(path)
    if name.endswith(".ndjson"):
        name = name[: -len(".ndjson")]
    if name.startswith("heartbeat."):
        name = name[len("heartbeat."):]
    return name[:_LABEL_W] or path[:_LABEL_W]


def render_snapshot(snap: Dict[str, object], label: Optional[str] = None) -> str:
    """One fixed-width console line for one heartbeat snapshot."""
    if label is not None:
        return f"{label:>{_LABEL_W}} {render_snapshot(snap)}"
    queues = snap.get("queues", {})
    counters = snap.get("counters", {})
    t_ms = float(snap.get("t_us", 0.0)) / 1000.0
    backlog = float(queues.get("link_backlog_us", 0.0))
    faults = snap.get("faults_active", "-")
    delivered = snap.get("delivered", "-")
    return (
        f"{t_ms:>8.1f}ms {snap.get('events', 0):>9} "
        f"{float(snap.get('events_per_sim_ms', 0.0)):>8.1f} "
        f"{snap.get('pending', 0):>6} "
        f"{backlog:>7.1f}us "
        f"{counters.get('retransmissions', 0):>5} "
        f"{counters.get('acks_received', 0):>6} "
        f"{counters.get('lease_requests', 0):>6} "
        f"{counters.get('store_recoveries', 0):>5} "
        f"{counters.get('link_drops', 0):>5} "
        f"{faults!s:>6} "
        f"{delivered!s:>7}"
    )


def _parse(line: str) -> Optional[Dict[str, object]]:
    """``line`` as a snapshot dict, or ``None`` if it is not one.

    The file comes from outside this process (another run, a copy, an
    editor), so everything :func:`render_snapshot` dereferences is
    checked here: a JSON object with a numeric ``t_us`` whose
    ``queues``/``counters``, when present, are objects.
    """
    try:
        snap = json.loads(line)
    except ValueError:
        return None
    if not isinstance(snap, dict):
        return None
    t_us = snap.get("t_us")
    if isinstance(t_us, bool) or not isinstance(t_us, (int, float)):
        return None
    if not all(isinstance(snap.get(group, {}), dict)
               for group in ("queues", "counters")):
        return None
    return snap


class _Source:
    """One heartbeat file being read: complete lines in, snapshots out."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.label = source_label(path)
        self.fh = open(path, encoding="utf-8")
        self.lineno = 0
        self.partial = ""
        self.rejected = 0

    def poll(self, final: bool) -> List[Dict[str, object]]:
        """Snapshots on the complete lines available now.

        A newline-less last line is held back until its newline arrives
        (a snapshot is never rendered half-written) unless ``final``: a
        finished file's last line is taken as it stands. A complete line
        that is not a snapshot is reported on stderr by file and line
        number, counted in :attr:`rejected`, and skipped.
        """
        snaps: List[Dict[str, object]] = []
        while True:
            chunk = self.fh.readline()
            self.partial += chunk
            if not self.partial.endswith("\n"):
                if chunk:
                    continue
                if not (final and self.partial):
                    return snaps
            line, self.partial = self.partial.strip(), ""
            self.lineno += 1
            if not line:
                continue
            snap = _parse(line)
            if snap is None:
                self.rejected += 1
                print(f"{self.path}:{self.lineno}: not a heartbeat "
                      f"snapshot: {line[:60]}", file=sys.stderr)
            else:
                snaps.append(snap)


def watch(
    path: Union[str, Sequence[str]],
    follow: bool = False,
    out: Optional[IO[str]] = None,
    max_lines: Optional[int] = None,
) -> int:
    """Render heartbeat file(s) to ``out`` (default stdout).

    Returns 0 when every complete line was a snapshot, 1 if any was
    rejected (the good lines are still rendered), 2 if a file cannot be
    opened. ``follow=True`` keeps tailing until interrupted.
    ``max_lines`` stops after that many snapshots (tests use it to bound
    follow mode). A list of paths merges the streams with per-line
    source labels — the sharded-campaign console; each poll's batch is
    sorted by simulated time.
    """
    paths = [path] if isinstance(path, str) else list(path)
    labeled = len(paths) > 1
    sink = out if out is not None else sys.stdout
    sources: List[_Source] = []
    try:
        for p in paths:
            sources.append(_Source(p))
    except OSError as exc:
        for src in sources:
            src.fh.close()
        print(f"cannot open heartbeat file: {exc}", file=sys.stderr)
        return 2
    shown = 0
    print(render_header(labeled), file=sink)
    try:
        while True:
            batch = [(src.label if labeled else None, snap)
                     for src in sources for snap in src.poll(not follow)]
            if labeled:
                batch.sort(key=lambda item: (item[1]["t_us"], item[0]))
            if max_lines is not None:
                batch = batch[:max_lines - shown]
            for label, snap in batch:
                print(render_snapshot(snap, label), file=sink, flush=follow)
            shown += len(batch)
            if not follow or shown == max_lines:
                break
            time.sleep(POLL_S)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        for src in sources:
            src.fh.close()
    return 1 if any(src.rejected for src in sources) else 0


def register(sub) -> None:
    """Declare ``watch`` on the ``repro.tools`` subparsers."""
    p = sub.add_parser(
        "watch", help="render a campaign's heartbeat NDJSON stream as a "
                      "live health console")
    p.set_defaults(run=lambda args: watch(
        args.file, follow=args.follow, max_lines=args.max_lines))
    p.add_argument("file", nargs="+",
                   help="heartbeat NDJSON file(s); several files (a sharded "
                        "run's per-worker heartbeats) merge into one labeled "
                        "console")
    p.add_argument("-f", "--follow", action="store_true",
                   help="keep tailing as the files grow")
    p.add_argument("--max-lines", type=int, dest="max_lines",
                   help="stop after N snapshots")
