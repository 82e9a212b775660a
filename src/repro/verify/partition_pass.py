"""Pass 5: the state-partition & shard-safety analyzer (``RS4xx``).

RedPlane is per-flow linearizable because every piece of protected state
is keyed by the 5-tuple ``FlowKey`` and ECMP pins a partition to one
switch. A sharded simulation needs that proven per app before it splits
the flow population across worker processes; this pass proves it. It
classifies each register array and lazy-snapshot array of a deployed
app on the partition-class lattice ``flow_local < flow_hash < global``:

* **flow_local** — indexed by a pure function of header fields (the
  5-tuple / VLAN): state splits along any flow partition;
* **flow_hash** — indexed through a compressing hash or a key parsed out
  of the payload: state splits along that derived key, which the plan
  reports;
* **global** — anything two flows can touch (sketch rows, sequencer
  counters): it cannot be split.

The classes come from the index derivations the
:class:`~repro.verify.pipeline_pass.Analyzer` records while it walks the app's
``partition_key`` and ``process``. Inference assigns the *tightest
provable* class; an app may declare a weaker one (``shard_class =
"global"`` with a mandatory ``shard_reason``), never a tighter one
(RS402). The result is one deterministic shard plan per app, committed
under ``shard_plans/<app>.json`` (a sharded launch refuses a drifted
one) and rendered by ``repro.tools verify --plan``.
"""

from __future__ import annotations

import json
from itertools import zip_longest
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.snapshot import LazySnapshotArray
from repro.verify import astutil
from repro.verify.astutil import CONST, RAISE
from repro.verify.pipeline_pass import (
    _T_HASH, _T_PAYLOAD, FALSE, HEADER_FIELDS, Access, Analyzer, app_analyzer,
    deployed,
)
from repro.verify.diagnostics import Report

#: Weakest-to-strongest is right to left: ``global`` makes no promise,
#: ``flow_local`` the strongest one.
CLASSES = ("flow_local", "flow_hash", "global")

#: Everything a classifiable index may derive from.
_KEY_INPUTS = HEADER_FIELDS | {_T_PAYLOAD, _T_HASH}


def class_rank(name: str) -> int:
    return CLASSES.index(name)


def widest(*names: str) -> str:
    """The loosest (most conservative) of the given classes."""
    return max(names, key=class_rank)


def _classify(tokens: FrozenSet[str]) -> Tuple[str, FrozenSet[str]]:
    """(class, key fields) of an index/key derivation token set.

    ``"unknown"`` (not in the lattice) means the derivation escaped the
    analyzer; callers degrade it to ``global`` after diagnosing.
    """
    t = frozenset(tokens) - CONST - FALSE
    if not t:
        return "global", frozenset()      # constant: one slot, all flows
    if not t <= _KEY_INPUTS:
        return "unknown", t - _KEY_INPUTS
    fields = t - {_T_HASH}
    if _T_HASH in t or _T_PAYLOAD in t:
        return "flow_hash", fields
    return "flow_local", fields


def _plan_fields(fields: FrozenSet[str]) -> List[str]:
    return sorted(f for f in fields if f in HEADER_FIELDS or f == _T_PAYLOAD)


def shard_plan(an: Analyzer, dep, label: str) -> Dict[str, object]:
    """Run the RS400-405/407 checks over one deployed app, note it as
    analyzed and return its shard plan."""
    an.site = f"app={label}"
    app = an.app
    name = type(app).__name__
    cls_file, cls_line = astutil.class_site(type(app))

    declared = getattr(app, "shard_class", None)
    reason = getattr(app, "shard_reason", None)
    if declared is not None and declared not in CLASSES:
        an.diag(
            "RS404",
            f"{name}.shard_class is {declared!r}; the "
            f"partition-class lattice is {', '.join(CLASSES)}",
            cls_file, cls_line,
        )
        declared = None
    if declared == "global" and not reason:
        an.diag(
            "RS403",
            f"{name} declares shard_class = 'global' "
            "without a shard_reason; say why the state is cross-flow",
            cls_file, cls_line,
        )

    # Partition key inference.
    records: List[Access] = []
    key_paths = an.app_paths(app.partition_key, records)
    returned = [p.ret for p in key_paths or ()
                if p.ret is not None and p.ret is not RAISE]
    key_tokens: FrozenSet[str] = frozenset().union(*returned)
    key_class, key_fields = (
        _classify(key_tokens) if returned else ("unknown", frozenset()))
    found = astutil.find_def(app.partition_key)
    key_file, key_line = (
        (found[1].path, found[0].lineno) if found else ("<unknown>", 1)
    )
    if key_class == "unknown":
        an.diag(
            "RS407",
            f"{name}.partition_key could not be statically analyzed"
            + (f" (unresolved inputs: {', '.join(sorted(key_fields))})"
               if key_fields else "")
            + "; the plan conservatively treats its state as global",
            key_file, key_line,
        )
    key_class_eff = "global" if key_class == "unknown" else key_class

    # Packet-path structure accesses.
    an.app_paths(app.process, records)
    by_attr: Dict[str, List[Access]] = {}
    for acc in records:
        if acc.attr is not None:
            by_attr.setdefault(acc.attr, []).append(acc)

    waived = declared == "global"
    struct_classes: Dict[str, Tuple[str, FrozenSet[str], str]] = {}
    for attr in sorted({attr for attr, _obj in an.structs}):
        accs = by_attr.get(attr, [])
        if not accs:
            struct_classes[attr] = (
                key_class_eff, key_fields, "no packet-path access")
            continue
        klass, fields = _classify(frozenset().union(
            *(acc.index for acc in accs)))
        note = ""
        if klass == "unknown":
            if not waived:
                an.diag(
                    "RS400",
                    f"access to {name}.{attr} has an "
                    f"index the analyzer cannot classify (unresolved "
                    f"inputs: {', '.join(sorted(fields)) or 'none'}); "
                    "a sharded run could not prove which shard owns "
                    "this state",
                    accs[0].file, accs[0].line,
                )
            klass, note = "global", "unclassifiable index"
        elif not waived and klass != "global" and not fields <= key_fields:
            an.diag(
                "RS401",
                f"{name}.{attr} is indexed by "
                f"{{{', '.join(sorted(fields))}}} but the app "
                f"partition key derives from "
                f"{{{', '.join(sorted(key_fields)) or 'nothing'}}}: "
                "flows of different partitions share this structure; "
                "declare shard_class = 'global' if that is intended",
                accs[0].file, accs[0].line,
            )
            klass, note = "global", "keyed outside the partition key"
        struct_classes[attr] = (klass, fields, note)

    inferred = widest(key_class_eff, *(
        klass for klass, _f, _n in struct_classes.values()))
    if declared is not None and class_rank(declared) < class_rank(inferred):
        an.diag(
            "RS402",
            f"{name} declares shard_class = "
            f"{declared!r} but inference proves only {inferred!r}; "
            "a declaration may relax the inferred class, never "
            "tighten it",
            cls_file, cls_line,
        )
        # The invalid (too-tight) declaration does not bind: the
        # plan records the honest inferred class.
        declared = None
    if declared is None and inferred == "global" and key_class != "unknown":
        an.diag(
            "RS405",
            f"{name} is inferred 'global' (its state "
            "is cross-flow) but declares no shard_class; annotate "
            "shard_class = 'global' with a shard_reason",
            cls_file, cls_line,
        )
    effective = declared if declared is not None else inferred

    def site(file: str, definition: object) -> str:
        # ``path::QualName``, not a line: a plan must not drift
        # because code above the definition it cites moved.
        return (f"{astutil.relpath(file, an.root)}::"
                f"{definition.__qualname__}")

    engine = dep.engines[dep.switches[0].name]
    eng_site = site(astutil.class_file(type(engine)), type(engine))
    entries: List[Dict[str, object]] = [{
        "name": reg.name,
        "kind": "engine_register",
        "partition_class": "global" if effective == "global"
        else key_class_eff,
        "key_fields": sorted(key_fields),
        "site": eng_site,
    } for reg in (
        engine.reg_lease_expiry, engine.reg_cur_seq, engine.reg_last_acked,
        engine.reg_lease_pending, engine.reg_last_renew, *engine.state_regs,
    )]

    store_keys: Dict[int, List[str]] = {}
    keyed = app.snapshot_structures()
    for fkey in sorted(
        keyed, key=lambda k: (k.src_ip, k.dst_ip, k.proto, k.sport, k.dport)
    ):
        store_keys.setdefault(id(keyed[fkey]), []).append(
            f"{fkey.src_ip}.{fkey.dst_ip}.{fkey.proto}."
            f"{fkey.sport}.{fkey.dport}"
        )

    cls_site = site(astutil.class_file(type(app)), type(app))
    for i, (attr, obj) in enumerate(an.structs):
        klass, fields, note = struct_classes[attr]
        entry: Dict[str, object] = {
            "name": str(getattr(obj, "name", None) or f"{attr}[{i}]"),
            "kind": "snapshot_array" if isinstance(obj, LazySnapshotArray)
            else "register_array",
            "attr": attr,
            "partition_class": "global" if effective == "global" else klass,
            "key_fields": _plan_fields(fields),
            "site": cls_site,
        }
        if note:
            entry["note"] = note
        if id(obj) in store_keys:
            entry["store_keys"] = store_keys[id(obj)]
        entries.append(entry)
    entries.sort(key=lambda e: (e["name"], e["kind"]))

    plan = {
        "format": 3,
        "app": label,
        "app_class": name,
        "partition_class": effective,
        "declared": {"shard_class": declared, "shard_reason": reason},
        "partition_key": {
            "class": key_class,
            "fields": _plan_fields(key_fields),
            "hashed": _T_HASH in key_tokens,
            "site": site(key_file, app.partition_key),
        },
        "structures": entries,
        "global_residue": sorted(
            e["name"] for e in entries if e["partition_class"] == "global"),
    }
    an.report.analyzed[f"partition:{label}"] = (
        f"{effective}; {len(entries)} structure(s)")
    return plan


# -- public entry points -------------------------------------------------------


def verify_partition_app(
    factory,
    label: Optional[str] = None,
    report: Optional[Report] = None,
    root: Optional[str] = None,
) -> Tuple[Report, Dict[str, object]]:
    """Deploy ``factory()`` exactly as the experiments do, run the
    partition analysis, and return (report, shard plan)."""
    from repro.deploy import deploy

    dep = deployed(deploy, factory)
    an = app_analyzer(dep, report, root)
    name = label or getattr(an.app, "name", "app")
    return an.report, shard_plan(an, dep, name)


def plan_json(plan: Dict[str, object]) -> str:
    """The canonical byte-deterministic serialization of a shard plan."""
    return json.dumps(plan, indent=2, sort_keys=True) + "\n"


_ABSENT = "<absent>"


def _first_difference(live: object, committed: object, path: str = "$") -> str:
    """The first JSON path (keys sorted, lists by index) at which two
    plans differ, with both values."""
    pairs: List[Tuple[str, object, object]] = []
    if isinstance(live, dict) and isinstance(committed, dict):
        pairs = [(f"{path}.{key}", live.get(key, _ABSENT),
                  committed.get(key, _ABSENT))
                 for key in sorted(set(live) | set(committed))]
    elif isinstance(live, list) and isinstance(committed, list):
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(
            zip_longest(live, committed, fillvalue=_ABSENT))]
    for step, a, b in pairs:
        if a != b:
            return _first_difference(a, b, step)
    return f"{path}: live code has {live!r}, committed plan has {committed!r}"


def plan_drift(plan: Dict[str, object], committed: str) -> Optional[str]:
    """The drift check a sharded launch runs on the committed plan:
    None when ``committed`` is byte-for-byte :func:`plan_json` of the
    live ``plan``, else where it differs — the first differing JSON path
    with both values."""
    fresh = plan_json(plan)
    if committed == fresh:
        return None
    try:
        stale = json.loads(committed)
    except ValueError:
        return "$: the committed file is not JSON"
    live = json.loads(fresh)
    if stale == live:
        return "$: the committed file is not in canonical form"
    return _first_difference(live, stale)


def render_plan(plan: Dict[str, object]) -> str:
    """Human rendering of one shard plan for ``verify --plan``."""
    lines: List[str] = []
    pk = plan["partition_key"]
    decl = plan["declared"]
    lines.append(
        f"{plan['app']} ({plan['app_class']}): "
        f"partition_class={plan['partition_class']}"
    )
    lines.append(
        f"  key: class={pk['class']} "
        f"fields=[{', '.join(pk['fields']) or '-'}]"
        f"{' hashed' if pk['hashed'] else ''}  ({pk['site']})"
    )
    if decl["shard_class"]:
        lines.append(
            f"  declared: {decl['shard_class']} -- "
            f"{decl['shard_reason'] or 'no reason'}"
        )
    for entry in plan["structures"]:
        fields = ", ".join(entry["key_fields"]) or "-"
        note = f" ({entry['note']})" if entry.get("note") else ""
        lines.append(
            f"  {entry['partition_class']:>10}  {entry['kind']:<16} "
            f"{entry['name']}  key=[{fields}]{note}"
        )
    residue = plan["global_residue"]
    lines.append(
        f"  global residue: {len(residue)} structure(s)"
        + (f" ({', '.join(residue[:4])}"
           + (", ..." if len(residue) > 4 else "") + ")"
           if residue else "")
    )
    return "\n".join(lines)
