"""Pass 1: the pipeline verifier.

Walks a *configured* :class:`~repro.switch.asic.SwitchASIC` program the
way the Tofino compiler walks a P4 program: every control block's
``process`` method (and every mirror-session pass handler) is summarized
symbolically by :class:`repro.verify.astutil.Walker` over the live block
instances, producing the set of per-packet *paths* — each a multiset of
register-array accesses plus a verdict (stop the pipeline / keep going).
Paths compose across blocks exactly like
:meth:`~repro.switch.pipeline.Pipeline.run` composes them (a block
returning ``False`` ends the packet's traversal), so a double access
split across two blocks is found just like one inside a single method.

What makes this tractable is the codebase's own discipline, which the
pass both exploits and enforces:

* data-plane state is only touched through
  ``RegisterArray.access/read/write(ctx, ...)`` — the ``ctx`` argument
  *is* the packet, so only calls that receive a packet context as a bare
  name can touch registers, and only those calls are inlined;
* loops over *collections of arrays* (``zip(self.state_regs, ...)``,
  ``enumerate(rows)``) touch each member once — modeled with
  member-scoped access keys — while a loop re-touching one fixed array
  is exactly the per-packet loop P4 cannot express (RP102).

On top of the path summaries the pass checks stage/ALU budgets (RP110),
mirror-session wiring (RP122, RP123) and the resource declarations
against both :data:`repro.switch.resources.CAPACITY` and the register
arrays the blocks actually instantiate (RP130, RP132, RP133).
"""

from __future__ import annotations

import ast
import math
from types import FunctionType
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.snapshot import LazySnapshotArray
from repro.statestore.backend import StateStoreBackend
from repro.switch.asic import SwitchASIC
from repro.switch.mirror import MirrorSession
from repro.switch.pipeline import describe_block
from repro.switch.registers import PairedRegisterArray, RegisterArray
from repro.switch.resources import CAPACITY
from repro.verify import astutil
from repro.verify.astutil import (
    Frame, Path, Ref, combine, concrete, dedupe, merge,
)
from repro.verify.diagnostics import Report, SuppressionIndex

#: Tofino-1 geometry (Table 2): 12 match-action stages, 4 stateful ALUs each.
STAGES = 12
ALUS_PER_STAGE = int(CAPACITY["meter_alus"] // STAGES)

_ACCESS_METHODS = ("access", "read", "write")
#: Control-plane register operations: legal from timers/CP handlers, an
#: RP150 error when reachable on a per-packet path.
_CP_METHODS = ("cp_read", "cp_write")
_REGISTER_TYPES = (RegisterArray, PairedRegisterArray)

#: The value of a packet context: what a ``PipelineContext(...)`` call
#: returns and what the parameter a context is passed to holds.
_CTX = "C"


def _const_value(node: Optional[ast.AST]) -> str:
    if isinstance(node, ast.Constant):
        if node.value is True:
            return "T"
        if node.value is False:
            return "F"
        if node.value is None:
            return "N"
    return "U"


def _is_pipelinecontext_call(node: ast.Call) -> bool:
    fn = node.func
    return (isinstance(fn, ast.Name) and fn.id == "PipelineContext") or (
        isinstance(fn, ast.Attribute) and fn.attr == "PipelineContext"
    )


class _PipelineAnalyzer(astutil.Walker):
    """Analyzes one configured SwitchASIC.

    The lattice: paths carry register-access counts, values are the
    verdict a path returns (``T``/``F``/``N``one/``R``aise/``U``nknown,
    plus the packet-context marker).
    """

    UNKNOWN = "U"
    NONE = "N"
    RAISE = "R"
    CONFIG = "U"

    def __init__(self, asic: SwitchASIC, report: Report,
                 suppressions: SuppressionIndex,
                 root: Optional[str] = None) -> None:
        super().__init__(report, suppressions, root)
        self.asic = asic
        # Access-key registry: display name, physical width, first site.
        self.key_names: Dict[Tuple, str] = {}
        self.key_widths: Dict[Tuple, int] = {}
        self.key_sites: Dict[Tuple, Tuple[str, int, str]] = {}
        # Registers owned by in-switch store backends (RP150): serving a
        # packet from these via cp_read/cp_write would dodge the pipeline
        # accounting. The engine's OWN registers legitimately mix access()
        # with documented cp_* modeling shortcuts, so the rule is scoped
        # to store-backend state only.
        self._store_reg_ids: Set[int] = {
            id(reg)
            for block in asic.pipeline.blocks
            for value in vars(block).values()
            if isinstance(value, StateStoreBackend)
            for _attr, reg in astutil.stateful_objects(value)
        }

    # -- the lattice ------------------------------------------------------------

    def join(self, values: Sequence[object]) -> object:
        distinct = set(values)
        return distinct.pop() if len(distinct) == 1 else "U"

    @staticmethod
    def _is_ctx(node: ast.AST, frame: Frame) -> bool:
        return isinstance(node, ast.Name) and frame.vals.get(node.id) == _CTX

    def eval(self, node: Optional[ast.AST], frame: Frame) -> List[Path]:
        if node is None or isinstance(
            node, (ast.Constant, ast.Name, ast.Lambda)
        ):
            return [Path({}, _const_value(node))]
        if isinstance(node, ast.Call):
            return self._eval_call(node, frame)
        if isinstance(node, ast.IfExp):
            pre = self.eval(node.test, frame)
            branches = self.eval(node.body, frame) + self.eval(
                node.orelse, frame
            )
            return combine(pre, branches)
        if isinstance(node, ast.BoolOp):
            effs = self.eval(node.values[0], frame)
            for operand in node.values[1:]:
                nxt = self.eval(operand, frame)
                effs = dedupe(effs + combine(effs, nxt))
            return effs
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._eval_comp(node, frame)
        effs = [Path({}, "U")]
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                effs = combine(effs, self.eval(child, frame))
            elif isinstance(child, ast.keyword):
                effs = combine(effs, self.eval(child.value, frame))
        return effs

    def loop_done(self, body: Dict, prefixes: Tuple, frame: Frame,
                  node: ast.AST) -> None:
        """RP102 for fixed-array accesses that reached the loop body only
        through an inlined callee (the per-access check can't see them)."""
        for key in body:
            if not any(key[: len(p)] == p for p in prefixes):
                self.diag(
                    "RP102",
                    f"register array {self.key_names[key]!r} accessed on "
                    "every iteration of a per-packet loop (via a call made "
                    "inside the loop body)",
                    frame.file, node.lineno, once=("RP102", key),
                )

    # -- access events --------------------------------------------------------

    def _access_event(self, ref: Ref, node: ast.AST, frame: Frame) -> Tuple:
        key = ref.key
        if key not in self.key_names:
            name = getattr(ref.exemplar, "name", type(ref.exemplar).__name__)
            if ref.member and ref.width > 1:
                name = f"{name}[*]"
            self.key_names[key] = name
            self.key_sites[key] = (frame.file, node.lineno, self.site)
        # A loop and a subscript share a key, but only the loop touches
        # every member: the widest use sets the key's stage cost.
        self.key_widths[key] = max(self.key_widths.get(key, 1), ref.width)
        if frame.loops:
            prefixes = frame.loops[-1]
            if not any(key[: len(p)] == p for p in prefixes):
                self.diag(
                    "RP102",
                    f"register array {self.key_names[key]!r} accessed inside "
                    "a per-packet loop: every iteration is another "
                    "stateful-ALU access to the same array (P4 has no "
                    "per-packet loops)",
                    frame.file, node.lineno, once=("RP102", key),
                )
        return key

    # -- calls ------------------------------------------------------------------

    def _ctx_arg(self, node: ast.Call, frame: Frame) -> Union[int, str, None]:
        """Where a call passes a packet context: the positional index or
        the keyword; None when it passes none."""
        for i, a in enumerate(node.args):
            if self._is_ctx(a, frame):
                return i
        for kw in node.keywords:
            if self._is_ctx(kw.value, frame):
                return kw.arg
        return None

    def _inline(self, self_ref: Optional[Ref], fn: FunctionType,
                ctx_param: Optional[str],
                caller: Optional[Tuple[str, int]] = None) -> List[Path]:
        """The paths of ``fn`` called on ``self_ref`` with the packet
        context in ``ctx_param``; an opaque path plus RP103 when it
        cannot be read."""
        paths = self.summarize(
            fn, self_ref, {ctx_param: _CTX} if ctx_param else None
        )
        if paths is not None:
            return paths
        code = fn.__code__
        file, line = caller or (code.co_filename, code.co_firstlineno)
        self.diag(
            "RP103",
            f"no analyzable source for '{fn.__qualname__}' (or it is "
            f"inlined more than {astutil.MAX_DEPTH} calls deep)",
            file, line, once=("RP103", id(code)),
        )
        return [Path({}, "U", True)]

    def _eval_call(self, node: ast.Call, frame: Frame) -> List[Path]:
        effs = [Path({}, "U")]
        if isinstance(node.func, ast.Attribute) and astutil.attr_chain(
            node.func
        ) is None:
            effs = combine(effs, self.eval(node.func.value, frame))
        for a in node.args:
            if isinstance(a, ast.Starred):
                a = a.value
            effs = combine(effs, self.eval(a, frame))
        for kw in node.keywords:
            effs = combine(effs, self.eval(kw.value, frame))
        if _is_pipelinecontext_call(node):
            return [Path(e.c, _CTX) for e in effs]

        if isinstance(node.func, ast.Attribute):
            base_node = node.func.value
            method = node.func.attr
            # ctx.emit / ctx.consume / ... — context bookkeeping, stateless.
            if self._is_ctx(base_node, frame):
                return effs
            base_ref = self.resolve(base_node, frame)
            exemplar = base_ref.exemplar if base_ref is not None else None
            where = self._ctx_arg(node, frame)
            if (
                isinstance(exemplar, _REGISTER_TYPES)
                and method in _ACCESS_METHODS
                and where is not None
            ):
                key = self._access_event(base_ref, node, frame)  # type: ignore[arg-type]
                return combine(effs, [Path({key: 1}, "U")])
            if (
                isinstance(exemplar, _REGISTER_TYPES)
                and method in _CP_METHODS
                and id(exemplar) in self._store_reg_ids
            ):
                self.diag(
                    "RP150",
                    f"store-backend register operation "
                    f"'{ast.unparse(node.func)}' is reachable on a "
                    "per-packet path; serve packets through access(ctx, "
                    "...) so the pipeline accounts the stateful-ALU use",
                    frame.file, node.lineno, once=True,
                )
                return effs
            if isinstance(exemplar, MirrorSession):
                return effs
            if where is not None:
                if base_ref is None:
                    self.diag(
                        "RP103",
                        "cannot statically resolve the receiver of "
                        f"'{ast.unparse(node.func)}', which is passed the "
                        "packet context: register accesses inside it are "
                        "unverifiable",
                        frame.file, node.lineno, once=True,
                    )
                    return effs
                fn = self.method(base_ref, method)
                if fn is None:
                    self.diag(
                        "RP103",
                        f"no analyzable source for ctx-carrying call "
                        f"'{ast.unparse(node.func)}'",
                        frame.file, node.lineno, once=True,
                    )
                    return effs
                params = fn.__code__.co_varnames[:fn.__code__.co_argcount]
                if isinstance(where, int):  # positional: +1 for self
                    where = params[where + 1] if where + 1 < len(params) \
                        else None
                paths = self._inline(
                    base_ref, fn, where, caller=(frame.file, node.lineno))
                return combine(effs, paths)
            return effs
        if isinstance(node.func, ast.Name) and self._ctx_arg(
            node, frame
        ) is not None:
            self.diag(
                "RP103",
                f"packet context passed to free function "
                f"'{node.func.id}'; its register accesses are unverifiable",
                frame.file, node.lineno, once=True,
            )
        return effs

    def _eval_comp(self, node, frame: Frame) -> List[Path]:
        gen = node.generators[0]
        pre = self.eval(gen.iter, frame)
        prefixes, empty = self.bind_loop(
            gen.target, gen.iter, self.value(pre), frame)
        if empty:
            return pre
        frame.loops.append(prefixes)
        inner = [Path({}, "U")]
        for g in node.generators[1:]:
            inner = combine(inner, self.eval(g.iter, frame))
        for g in node.generators:
            for cond in g.ifs:
                inner = combine(inner, self.eval(cond, frame))
        if isinstance(node, ast.DictComp):
            inner = combine(inner, self.eval(node.key, frame))
            inner = combine(inner, self.eval(node.value, frame))
        else:
            inner = combine(inner, self.eval(node.elt, frame))
        frame.loops.pop()
        once = astutil.worst([e.c for e in inner])
        self.loop_done(once, prefixes, frame, node)
        return combine(pre, [Path(once, "U")])

    # -- entry points -----------------------------------------------------------

    def _entry_paths(self, block: object) -> List[Path]:
        self.site = f"block={describe_block(block)}"
        ref = concrete(block)
        fn = self.method(ref, "process")
        if fn is None:
            file, line = astutil.class_site(type(block))
            self.diag(
                "RP103",
                f"control block {describe_block(block)!r} has no analyzable "
                "process() method",
                file, line, site="", once=True,
            )
            return [Path({}, "U", True)]
        code = fn.__code__
        ctx_param = code.co_varnames[1] if code.co_argcount >= 2 else None
        return self._inline(ref, fn, ctx_param)

    def _handler_paths(self, handler) -> Tuple[List[Path], Optional[Tuple[str, int]]]:
        """Path summary of a mirror pass handler + its def site."""
        self_obj = getattr(handler, "__self__", None)
        fn = getattr(handler, "__func__", handler)
        if not isinstance(fn, FunctionType):
            return [Path({}, "U", True)], None
        self.site = "block=handler:" + (
            describe_block(self_obj) if self_obj is not None
            else fn.__qualname__
        )
        self_ref = concrete(self_obj) if self_obj is not None else None
        paths = self._inline(self_ref, fn, None)
        return paths, (fn.__code__.co_filename, fn.__code__.co_firstlineno)

    # -- mirror reachability --------------------------------------------------

    def _mirror_reach(self, self_obj: Optional[object], fn,
                      seen: Set[Tuple], use: Set[int],
                      release: Set[int]) -> None:
        fn = getattr(fn, "__func__", fn)
        found = self.source(fn) if isinstance(fn, FunctionType) else None
        if found is None:
            return
        node, sf = found
        params = [a.arg for a in node.args.args]
        frame = Frame(sf.path, {})
        if self_obj is not None and params:
            frame.refs[params[0]] = concrete(self_obj)
        for call in ast.walk(node):
            if not isinstance(call, ast.Call) or not isinstance(
                call.func, ast.Attribute
            ):
                continue
            ref = self.resolve(call.func.value, frame)
            if ref is None:
                continue
            ex = ref.exemplar
            if isinstance(ex, MirrorSession):
                if call.func.attr == "mirror":
                    use.add(ex.session_id)
                elif call.func.attr == "release":
                    release.add(ex.session_id)
                continue
            m = self.method(ref, call.func.attr)
            if m is not None:
                k = (id(m.__code__), id(ex))
                if k not in seen:
                    seen.add(k)
                    self._mirror_reach(ex, m, seen, use, release)

    # -- resource checks ------------------------------------------------------

    @staticmethod
    def _components(blocks: Sequence[object]) -> List[object]:
        """Apps first (they own their structures), then blocks in order;
        each object once."""
        apps = [b.app for b in blocks if callable(
            getattr(getattr(b, "app", None), "resource_usage", None))]
        return list({id(c): c for c in [*apps, *blocks]}.values())

    @staticmethod
    def _unclaimed_sram_bits(obj: object, claimed: Set[int]) -> float:
        """SRAM bits of the stateful objects ``obj`` instantiates and no
        earlier component claimed (a lazy-snapshot array is its three
        registers). TCAM is declared, never introspected: no modelled
        object occupies it."""
        bits = 0.0
        for _attr, s in astutil.stateful_objects(obj):
            parts = (
                (s.data, s.active_flag, s.last_updated)
                if isinstance(s, LazySnapshotArray) else (s,)
            )
            for part in parts:
                if id(part) in claimed:
                    continue
                claimed.add(id(part))
                bits += part.sram_bits()
        return bits

    def _check_resources(self, blocks: Sequence[object]) -> None:
        asic = self.asic
        comps = self._components(blocks)
        expected: Dict[str, float] = {}
        claimed: Set[int] = set()
        for comp in comps:
            usage_fn = getattr(comp, "resource_usage", None)
            usage = usage_fn() if callable(usage_fn) else {}
            file, line = astutil.class_site(type(comp))
            for k, v in usage.items():
                expected[k] = expected.get(k, 0.0) + float(v)
            declared = float(usage.get("sram_bits", 0.0))
            actual = self._unclaimed_sram_bits(comp, claimed)
            if actual > declared + 1e-6:
                self.diag(
                    "RP132",
                    f"{type(comp).__name__} declares "
                    f"{int(declared)} sram_bits but instantiates stateful "
                    f"objects totalling {int(actual)} "
                    f"(under-declared by {int(actual - declared)})",
                    file, line, site="",
                )
        ledger = asic.resources.usage
        drift = sorted(
            k for k in set(ledger) | set(expected)
            if abs(ledger.get(k, 0.0) - expected.get(k, 0.0)) > 1e-6
        )
        anchor_file, anchor_line = (
            astutil.class_site(type(blocks[0])) if blocks
            else ("<unknown>", 1)
        )
        if drift:
            detail = ", ".join(
                f"{k}: ledger={ledger.get(k, 0.0):g} "
                f"declared={expected.get(k, 0.0):g}"
                for k in drift
            )
            self.diag(
                "RP133",
                f"switch resource ledger disagrees with the block/app "
                f"declarations ({detail}); register components via "
                "add_block() or resources.register()",
                anchor_file, anchor_line, site=f"switch={asic.name}",
            )
        for key in asic.resources.over_capacity():
            self.diag(
                "RP130",
                f"declared {key} usage {asic.resources.usage[key]:g} exceeds "
                f"chip capacity {CAPACITY[key]:g} "
                f"({asic.resources.percentage(key):.1f}%); the Tofino "
                "compiler would reject this program",
                anchor_file, anchor_line, site=f"switch={asic.name}",
            )

    # -- top level ------------------------------------------------------------

    @staticmethod
    def _owner_site(session: MirrorSession,
                    blocks: Sequence[object]) -> Tuple[str, int]:
        """The class of the block holding ``session`` (else the first
        block's) — where its diagnostics point."""
        for b in blocks:
            if any(v is session for v in vars(b).values()):
                return astutil.class_site(type(b))
        return astutil.class_site(type(blocks[0])) if blocks else (
            "<unknown>", 1)

    def run(self) -> None:
        asic = self.asic
        blocks = list(asic.pipeline.blocks)

        block_paths: List[Tuple[object, List[Path]]] = []
        counted: Set[int] = set()
        for b in blocks:
            if id(b) not in counted:
                counted.add(id(b))
                block_paths.append((b, self._entry_paths(b)))
                continue
            # RP105: the same instance twice is a cycle in the stage DAG.
            file, line = astutil.class_site(type(b))
            self.diag(
                "RP105",
                f"control block {describe_block(b)!r} appears more than "
                "once in the pipeline; block ordering must be an acyclic "
                "stage assignment",
                file, line, site=f"switch={asic.name}",
            )

        # Compose block paths the way Pipeline.run composes blocks.
        composed: List[Path] = [Path()]
        finals: List[Path] = []
        for _b, paths in block_paths:
            nxt: List[Path] = []
            for pre in composed:
                for p in paths:
                    q = pre.fork()
                    merge(q.c, p.c)
                    (finals if p.ret in ("F", "R") else nxt).append(q)
            composed, finals = dedupe(nxt), dedupe(finals)
        finals = dedupe(finals + composed)

        # Mirror sessions: handlers are independent entry points (each
        # recirculation pass is its own packet context).
        sessions = sorted(asic._mirror_sessions.items())
        handler_sites: Dict[int, Optional[Tuple[str, int]]] = {}
        for sid, session in sessions:
            hpaths, hsite = self._handler_paths(session.handler)
            handler_sites[sid] = hsite
            finals += [Path(dict(p.c)) for p in hpaths]
        finals = dedupe(finals)

        # RP101 over every composed path.
        flagged: Set[Tuple] = set()
        for path in finals:
            for key, cnt in path.c.items():
                if cnt >= 2 and key not in flagged:
                    flagged.add(key)
                    file, line, site = self.key_sites[key]
                    self.diag(
                        "RP101",
                        f"register array {self.key_names[key]!r} can be "
                        f"accessed {cnt}x while processing one packet; "
                        "Tofino allows a single access per array per packet "
                        "(PAPER §5.4)",
                        file, line, site=f"{site} pkt=*",
                    )

        # RP110: stage budget. Each block needs ceil(worst-path stateful
        # ops / ALUs-per-stage) stages; blocks execute sequentially.
        total_stages = 0
        detail: List[str] = []
        for b, paths in block_paths:
            ops = 0
            for p in paths:
                p_ops = sum(
                    cnt * self.key_widths.get(key, 1)
                    for key, cnt in p.c.items()
                )
                ops = max(ops, p_ops)
            st = math.ceil(ops / ALUS_PER_STAGE) if ops else 0
            total_stages += st
            if st:
                detail.append(f"{describe_block(b)}={st}")
        if total_stages > STAGES:
            anchor_file, anchor_line = astutil.class_site(type(blocks[0]))
            self.diag(
                "RP110",
                f"pipeline needs {total_stages} stages "
                f"({', '.join(detail)}) but the chip has {STAGES} "
                f"(Table 2: {STAGES} stages x {ALUS_PER_STAGE} stateful "
                "ALUs)",
                anchor_file, anchor_line, site=f"switch={asic.name}",
            )

        # RP122/RP123: reachability of mirror()/release() call sites.
        use: Set[int] = set()
        release: Set[int] = set()
        seen: Set[Tuple] = set()
        for b in blocks:
            fn = getattr(type(b), "process", None)
            self._mirror_reach(b, fn, seen, use, release)
        for sid, session in sessions:
            self._mirror_reach(
                getattr(session.handler, "__self__", None),
                session.handler, seen, use, release,
            )
        for sid, session in sessions:
            file, line = self._owner_site(session, blocks)
            if sid not in use:
                self.diag(
                    "RP122",
                    f"mirror session {sid} is configured but no pipeline "
                    "path can reach a mirror() call on it; it is dead "
                    "resource",
                    file, line, site=f"switch={asic.name}",
                )
            if sid not in release:
                hsite = handler_sites[sid]
                hfile, hline = hsite if hsite else (file, line)
                self.diag(
                    "RP123",
                    "nothing reachable from the pipeline or the pass "
                    f"handler of mirror session {sid} calls release(): "
                    "copies circulate forever and exhaust the packet buffer",
                    hfile, hline, site=f"switch={asic.name}",
                )

        self._check_resources(blocks)


# -- public entry points ------------------------------------------------------


class DeployError(RuntimeError):
    """The program under verification raised while it was deployed."""


def deployed(deploy_fn, factory):
    """``deploy_fn(Simulator(seed=0), factory)``, with any failure raised
    as a :class:`DeployError` that names it."""
    from repro.net.simulator import Simulator

    try:
        return deploy_fn(Simulator(seed=0), factory)
    except Exception as exc:
        raise DeployError(f"{type(exc).__name__}: {exc}") from exc


def verify_asic(
    asic: SwitchASIC,
    report: Optional[Report] = None,
    suppressions: Optional[SuppressionIndex] = None,
    root: Optional[str] = None,
) -> Report:
    """Statically verify one configured switch program (read-only)."""
    report = report if report is not None else Report()
    suppressions = (
        suppressions if suppressions is not None else SuppressionIndex()
    )
    _PipelineAnalyzer(asic, report, suppressions, root).run()
    return report


def verify_app(
    factory,
    label: Optional[str] = None,
    report: Optional[Report] = None,
    suppressions: Optional[SuppressionIndex] = None,
    root: Optional[str] = None,
) -> Report:
    """Deploy ``factory()`` on a fresh simulated testbed and verify the
    resulting switch program — for a bounded-inconsistency app that
    includes the replicator block ``deploy()`` put in the pipeline."""
    from repro.deploy import deploy

    dep = deployed(deploy, factory)
    switch = dep.switches[0]
    app = dep.apps[switch.name]
    report = report if report is not None else Report()
    verify_asic(switch, report=report, suppressions=suppressions, root=root)
    name = label or getattr(app, "name", type(app).__name__)
    report.analyzed[f"app:{name}"] = (
        f"{type(app).__name__} on {switch.name} "
        f"({len(switch.pipeline.blocks)} blocks, "
        f"{len(switch._mirror_sessions)} mirror session(s))"
    )
    return report


def verify_netchain(
    report: Optional[Report] = None,
    suppressions: Optional[SuppressionIndex] = None,
    root: Optional[str] = None,
) -> Report:
    """Deploy the NetChain-style in-switch store and verify its ToR program.

    The store block serves every request from register arrays inside a
    single pipeline pass, so it is subject to the same static discipline
    as the apps: one access per array per packet (RP101), no per-packet
    loops over one array (RP102), stage budget (RP110), and — specific
    to in-switch stores — no control-plane register ops on the packet
    path (RP150).
    """
    from repro.apps.counter import SyncCounterApp
    from repro.deploy import deploy_netchain

    dep = deployed(deploy_netchain, SyncCounterApp)
    tor = dep.netchain.switch
    report = report if report is not None else Report()
    verify_asic(tor, report=report, suppressions=suppressions, root=root)
    report.analyzed["store:netchain"] = (
        f"NetChainStoreBlock on {tor.name} "
        f"({dep.netchain.backend.describe()}, "
        f"{len(tor._mirror_sessions)} mirror session(s))"
    )
    return report
