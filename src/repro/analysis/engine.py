"""The taint/dataflow engine.

Design notes (mirroring paper §2.2 and §4.3):

* **Inter-procedural**: user-function calls are analysed with
  per-call-site argument labels and memoized summaries (return labels +
  writes through pointer parameters).
* **Context-sensitive**: summaries are keyed by the full argument-label
  assignment, and events carry the call chain so downstream passes can
  attribute conditions guarding call sites.
* **Field-sensitive**: labels attach to ``(scope, var, field-path)``
  locations.
* **No pointer-alias analysis** - on purpose.  ``AddrOf`` provenance is
  tracked syntactically; a pointer variable re-targeted at several
  parameters accumulates *all* targets, so dereferences attribute
  facts to every candidate parameter.  This reproduces the paper's
  mis-attribution inaccuracy on alias-heavy code (OpenLDAP, §4.3).
* **Worklist fixpoint**: every function is a *root* analysed with its
  seeded parameters.  The first pass analyses each root; later passes
  re-analyse, in module order, only the roots whose recorded inputs
  changed (see `TaintEngine.run`), with exactly the events, labels and
  parameters a full re-analysis of every root would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.events import (
    BranchCondEvent,
    CallArgEvent,
    CallChain,
    CallSiteRef,
    CastEvent,
    EventLog,
    Labels,
    OperandInfo,
    ScaleEvent,
    StoreEvent,
    StringCompareEvent,
    SwitchCaseEvent,
    UsageEvent,
)
from repro.analysis.seeds import GetterSpec, GlobalSeed, ParamSeed
from repro.ir.cfg import CfgInfo
from repro.ir.function import IRFunction, IRModule
from repro.ir.instructions import (
    AddrOf,
    Assign,
    BinOp,
    Branch,
    Call,
    CallIndirect,
    Cast,
    LoadDeref,
    LoadField,
    LoadIndex,
    Ret,
    StoreDeref,
    StoreField,
    StoreIndex,
    SwitchInst,
    UnOp,
)
from repro.ir.values import Const, FuncRef, Operand, Temp, Variable
from repro.knowledge import ApiKnowledge, default_knowledge

LocKey = tuple[str, str, tuple[str, ...]]  # (scope, name, path)
LabelMap = dict[str, int]  # param -> copy hops


#: Bounds of the fixpoint: whole-module passes, call-chain context
#: length and sweeps over one function's blocks.
MAX_ROUNDS = 4
MAX_CHAIN = 3
MAX_BLOCK_ITERATIONS = 4


@dataclass
class Summary:
    return_labels: LabelMap = field(default_factory=dict)
    param_writes: dict[tuple[str, tuple[str, ...]], LabelMap] = field(
        default_factory=dict
    )


_EMPTY_SUMMARY = Summary()


def merge_labels(dst: LabelMap, src: LabelMap, extra_hops: int = 0) -> bool:
    changed = False
    for name, hops in src.items():
        new_hops = hops + extra_hops
        if name not in dst or dst[name] > new_hops:
            dst[name] = new_hops
            changed = True
    return changed


@dataclass
class _RootRun:
    """What one root analysis depended on: the global label keys,
    label subtrees and pointer-target keys it read (a global write
    reads its target first), the summaries it reused from earlier
    roots of its pass and the ones it computed itself.  Summaries
    computed for the root count as the root's own reads."""

    label_start: int  # position in the engine's label-change log
    ptr_start: int  # position in the engine's pointer-change log
    reads: set[LocKey] = field(default_factory=set)
    subtrees: set[tuple[str, tuple[str, ...]]] = field(default_factory=set)
    ptr_reads: set[LocKey] = field(default_factory=set)
    hits: dict[object, Summary] = field(default_factory=dict)
    computed: dict[object, Summary] = field(default_factory=dict)
    capped: bool = False  # some block loop stopped at its iteration cap


@dataclass
class AnalysisResult:
    """Everything the inference passes need."""

    module: IRModule
    events: EventLog
    global_labels: dict[LocKey, LabelMap]
    parameters: set[str]
    _cfg_cache: dict[str, CfgInfo] = field(default_factory=dict)

    def cfg(self, function: str) -> CfgInfo:
        if function not in self._cfg_cache:
            self._cfg_cache[function] = CfgInfo.for_function(
                self.module.function(function)
            )
        return self._cfg_cache[function]

    def events_of(self, cls) -> list:
        return self.events.of_type(cls)


class TaintEngine:
    """Runs the whole-module dataflow to a fixpoint of events."""

    def __init__(
        self,
        module: IRModule,
        seeds: list,
        getters: list[GetterSpec] | None = None,
        knowledge: ApiKnowledge | None = None,
    ):
        self.module = module
        self.knowledge = knowledge or default_knowledge()
        self.global_seeds = [s for s in seeds if isinstance(s, GlobalSeed)]
        self.param_seeds = [s for s in seeds if isinstance(s, ParamSeed)]
        self.getters = {g.getter: g for g in (getters or [])}
        self.events = EventLog()
        self.global_labels: dict[LocKey, LabelMap] = {}
        self.global_ptr: dict[LocKey, set[LocKey]] = {}
        self.summaries: dict[object, Summary] = {}
        self.in_progress: set[object] = set()
        self.parameters: set[str] = {s.param for s in seeds}
        # Every change of a global label / pointer-target set, in order;
        # a root run remembers where both logs stood when it began.
        self._label_log: list[LocKey] = []
        self._ptr_log: list[LocKey] = []
        self._run: _RootRun | None = None
        # Work done by `run`: passes over the roots, root analyses and
        # summaries carried into a pass by the clean roots that own them.
        self.passes = 0
        self.analyses = 0
        self.reused_summaries = 0

    # -- public API ---------------------------------------------------------

    def run(self) -> AnalysisResult:
        """Analyse every root to a fixpoint of events and global labels.

        A pass walks the roots in module order.  The first analyses
        each; later ones skip a root whose last analysis is still
        *clean*: no global it read changed after its analysis began,
        every summary it reused is still the one its pass holds, none
        it computed has been computed earlier in this pass, and no
        block loop stopped at its cap.  Analysing a clean root again
        would read the same inputs and so add no event and change no
        label; its summaries stand in for the ones that re-analysis
        would compute, so every later root meets the summaries, and
        call chains, a full pass would give it.  The run stops when a
        pass adds no event and changes no global label (a pass with no
        stale root is such a pass) or after `MAX_ROUNDS` passes.
        """
        for seed in self.global_seeds:
            loc = ("global", seed.var, seed.path)
            self.global_labels.setdefault(loc, {})[seed.param] = 0

        roots = [
            (fn, self._root_assignment(fn))
            for fn in self.module.functions.values()
        ]
        runs: list[_RootRun | None] = [None] * len(roots)
        for _pass in range(MAX_ROUNDS):
            self.passes += 1
            self.summaries = {}
            before_events = len(self.events)
            before_labels = len(self._label_log)
            for i, (fn, assignment) in enumerate(roots):
                last = runs[i]
                if last is not None and not self._stale(last):
                    self.summaries.update(last.hits)
                    self.summaries.update(last.computed)
                    self.reused_summaries += len(last.computed)
                    continue
                runs[i] = self._analyse_root(fn, assignment)
            if len(self.events) == before_events and (
                len(self._label_log) == before_labels
            ):
                break
        self._run = None
        return AnalysisResult(
            module=self.module,
            events=self.events,
            global_labels=self.global_labels,
            parameters=set(self.parameters),
        )

    # -- internals ------------------------------------------------------------

    def _analyse_root(
        self, fn: IRFunction, assignment: dict[tuple[str, tuple], LabelMap]
    ) -> _RootRun:
        run = _RootRun(len(self._label_log), len(self._ptr_log))
        self._run = run
        self.analyses += 1
        _FunctionAnalysis(self, fn, assignment, chain=()).run()
        return run

    def _stale(self, run: _RootRun) -> bool:
        if run.capped:
            return True
        for key in self._label_log[run.label_start :]:
            if key in run.reads:
                return True
            if run.subtrees:
                _, name, path = key
                for i in range(len(path) + 1):
                    if (name, path[:i]) in run.subtrees:
                        return True
        for key in self._ptr_log[run.ptr_start :]:
            if key in run.ptr_reads:
                return True
        summaries = self.summaries
        for key, summary in run.hits.items():
            if summaries.get(key) is not summary:
                return True
        return any(key in summaries for key in run.computed)

    def _root_assignment(self, fn: IRFunction) -> dict[tuple[str, tuple], LabelMap]:
        assignment: dict[tuple[str, tuple], LabelMap] = {}
        for seed in self.param_seeds:
            if seed.function != fn.name:
                continue
            assignment.setdefault((seed.param_name, seed.path), {})[seed.param] = 0
        return assignment

    def summarize(
        self,
        callee: str,
        assignment: dict[tuple[str, tuple], LabelMap],
        chain: CallChain,
    ) -> Summary:
        # Annotation-declared param seeds apply on every invocation.
        fn = self.module.functions.get(callee)
        if fn is None:
            return _EMPTY_SUMMARY
        merged = {k: dict(v) for k, v in self._root_assignment(fn).items()}
        for key, labels in assignment.items():
            merge_labels(merged.setdefault(key, {}), labels)
        key = (
            callee,
            tuple(
                sorted(
                    (name, path, tuple(sorted(labels.items())))
                    for (name, path), labels in merged.items()
                )
            ),
        )
        run = self._run
        summary = self.summaries.get(key)
        if summary is not None:
            if key not in run.computed:
                run.hits[key] = summary
            return summary
        if key in self.in_progress:
            return _EMPTY_SUMMARY
        self.in_progress.add(key)
        try:
            analysis = _FunctionAnalysis(self, fn, merged, chain)
            summary = analysis.run()
        finally:
            self.in_progress.discard(key)
        self.summaries[key] = summary
        run.computed[key] = summary
        return summary

    def labels_under(self, prefix: LocKey) -> dict[tuple[str, ...], LabelMap]:
        """Global labels at or under a (scope, name, path) prefix,
        keyed by the path *suffix* relative to the prefix."""
        scope, name, path = prefix
        out: dict[tuple[str, ...], LabelMap] = {}
        if scope != "global":
            return out
        self._run.subtrees.add((name, path))
        for (g_scope, g_name, g_path), labels in self.global_labels.items():
            if g_scope == scope and g_name == name and g_path[: len(path)] == path:
                out[g_path[len(path) :]] = labels
        return out


class _FunctionAnalysis:
    """One (function, argument-labels) analysis instance."""

    def __init__(
        self,
        engine: TaintEngine,
        fn: IRFunction,
        assignment: dict[tuple[str, tuple], LabelMap],
        chain: CallChain,
    ):
        self.engine = engine
        self.fn = fn
        self.chain = chain[-MAX_CHAIN:]
        self.local_labels: dict[tuple[str, tuple[str, ...]], LabelMap] = {}
        self.temp_labels: dict[int, LabelMap] = {}
        self.temp_ptr: dict[int, frozenset[LocKey]] = {}
        self.var_ptr: dict[tuple[str, tuple[str, ...]], set[LocKey]] = {}
        self.temp_origin: dict[int, LocKey] = {}
        self.summary = Summary()
        self.changed = False
        self.param_names = {p.name for p in fn.params}
        self.pointer_params = {
            p.name for p in fn.params if p.type is not None and p.type.is_pointer
        }
        for (name, path), labels in assignment.items():
            merge_labels(self.local_labels.setdefault((name, path), {}), labels)
        run = engine._run
        self.reads = run.reads
        self.ptr_reads = run.ptr_reads

    # -- label helpers ---------------------------------------------------------

    def _loc_labels(self, scope: str, name: str, path: tuple[str, ...]) -> LabelMap:
        """Union of labels at the location and its path prefixes."""
        out: LabelMap = {}
        if scope == "global":
            global_labels = self.engine.global_labels
            for i in range(len(path) + 1):
                key = ("global", name, path[:i])
                self.reads.add(key)
                found = global_labels.get(key)
                if found:
                    merge_labels(out, found)
            return out
        local_labels = self.local_labels
        for i in range(len(path) + 1):
            found = local_labels.get((name, path[:i]))
            if found:
                merge_labels(out, found)
        return out

    def _write_loc(
        self, scope: str, name: str, path: tuple[str, ...], labels: LabelMap,
        extra_hops: int,
    ) -> None:
        if not labels:
            return
        if scope == "global":
            key = ("global", name, path)
            self.reads.add(key)
            target = self.engine.global_labels.setdefault(key, {})
            if merge_labels(target, labels, extra_hops):
                self.changed = True
                self.engine._label_log.append(key)
            return
        target = self.local_labels.setdefault((name, path), {})
        if name in self.pointer_params:
            writes = self.summary.param_writes.setdefault((name, path), {})
            merge_labels(writes, labels, extra_hops)
        if merge_labels(target, labels, extra_hops):
            self.changed = True

    def _var_scope(self, var: Variable) -> str:
        return "global" if var.kind == "global" else self.fn.name

    def _operand_info(self, op: Operand) -> OperandInfo:
        if isinstance(op, Const):
            return OperandInfo(Labels(), None, op.value, True)
        if isinstance(op, Temp):
            labels = Labels.of(self.temp_labels.get(op.id, {}))
            origin = self.temp_origin.get(op.id)
            return OperandInfo(labels, origin, None, False)
        if isinstance(op, Variable):
            scope = self._var_scope(op)
            labels = Labels.of(self._loc_labels(scope, op.name, ()))
            return OperandInfo(labels, (scope, op.name, ()), None, False)
        return OperandInfo(Labels(), None, None, False)

    def _labels_of(self, op: Operand) -> LabelMap:
        if isinstance(op, Temp):
            return dict(self.temp_labels.get(op.id, {}))
        if isinstance(op, Variable):
            return self._loc_labels(self._var_scope(op), op.name, ())
        return {}

    def _ptr_targets(self, op: Operand) -> frozenset[LocKey]:
        if isinstance(op, Temp):
            return self.temp_ptr.get(op.id, frozenset())
        if isinstance(op, Variable):
            if op.kind == "global":
                key = ("global", op.name, ())
                self.ptr_reads.add(key)
                return frozenset(self.engine.global_ptr.get(key, ()))
            return frozenset(self.var_ptr.get((op.name, ()), ()))
        return frozenset()

    def _set_temp(self, temp: Temp, labels: LabelMap) -> None:
        current = self.temp_labels.setdefault(temp.id, {})
        if merge_labels(current, labels):
            self.changed = True

    def _emit(self, event) -> None:
        if self.engine.events.add(event):
            self.changed = True

    # -- main loop --------------------------------------------------------------

    def run(self) -> Summary:
        handlers = _HANDLERS
        blocks = [
            (block.label, block.instructions) for block in self.fn.block_order()
        ]
        for _ in range(MAX_BLOCK_ITERATIONS):
            self.changed = False
            for label, instructions in blocks:
                for inst in instructions:
                    handler = handlers.get(type(inst))
                    if handler is not None:
                        handler(self, label, inst)
            if not self.changed:
                break
        else:
            self.engine._run.capped = True
        return self.summary

    # -- per-instruction handlers ----------------------------------------------

    def _visit_unop(self, block: str, inst: UnOp) -> None:
        self._set_temp(inst.dest, self._labels_of(inst.operand))

    def _visit_load_index(self, block: str, inst: LoadIndex) -> None:
        self._set_temp(inst.dest, self._labels_of(inst.base))

    def _visit_addr_of(self, block: str, inst: AddrOf) -> None:
        scope = self._var_scope(inst.var)
        self.temp_ptr[inst.dest.id] = frozenset({(scope, inst.var.name, inst.path)})

    def _visit_ret(self, block: str, inst: Ret) -> None:
        if inst.value is not None:
            labels = self._labels_of(inst.value)
            if merge_labels(self.summary.return_labels, labels):
                self.changed = True

    def _visit_assign(self, block: str, inst: Assign) -> None:
        labels = self._labels_of(inst.src)
        ptr = self._ptr_targets(inst.src)
        if isinstance(inst.dest, Temp):
            self._set_temp(inst.dest, labels)
            if ptr:
                merged = self.temp_ptr.get(inst.dest.id, frozenset()) | ptr
                if merged != self.temp_ptr.get(inst.dest.id):
                    self.temp_ptr[inst.dest.id] = merged
                    self.changed = True
            if isinstance(inst.src, Variable):
                self.temp_origin[inst.dest.id] = (
                    self._var_scope(inst.src),
                    inst.src.name,
                    (),
                )
            elif isinstance(inst.src, Temp) and inst.src.id in self.temp_origin:
                self.temp_origin[inst.dest.id] = self.temp_origin[inst.src.id]
            return
        if isinstance(inst.dest, Variable):
            scope = self._var_scope(inst.dest)
            loc = (scope, inst.dest.name, ())
            target_labels = self._loc_labels(scope, inst.dest.name, ())
            src_info = self._operand_info(inst.src)
            if labels or target_labels or src_info.is_const:
                self._emit(
                    StoreEvent(
                        function=self.fn.name,
                        block=block,
                        location=inst.location,
                        target=loc,
                        target_labels=Labels.of(target_labels),
                        src_labels=Labels.of(labels),
                        src_const=src_info.const,
                        src_is_const=src_info.is_const,
                        chain=self.chain,
                    )
                )
            self._write_loc(scope, inst.dest.name, (), labels, extra_hops=1)
            if ptr:
                if scope == "global":
                    self.ptr_reads.add(loc)
                    store = self.engine.global_ptr.setdefault(loc, set())
                else:
                    store = self.var_ptr.setdefault((inst.dest.name, ()), set())
                before = len(store)
                store.update(ptr)
                if len(store) != before:
                    self.changed = True
                    if scope == "global":
                        self.engine._ptr_log.append(loc)

    def _visit_binop(self, block: str, inst: BinOp) -> None:
        left = self._labels_of(inst.left)
        right = self._labels_of(inst.right)
        union: LabelMap = {}
        merge_labels(union, left)
        merge_labels(union, right)
        self._set_temp(inst.dest, union)
        self._maybe_scale_event(block, inst, left, right)
        if not inst.is_comparison and union:
            self._emit(
                UsageEvent(
                    function=self.fn.name,
                    block=block,
                    location=inst.location,
                    labels=Labels.of(union),
                    kind="arith",
                    chain=self.chain,
                )
            )

    def _maybe_scale_event(self, block: str, inst: BinOp, left, right) -> None:
        """Record `param * const` / `param / const` for unit inference."""
        if inst.op not in ("*", "/"):
            return
        factor = None
        labels: LabelMap = {}
        if left and isinstance(inst.right, Const) and isinstance(
            inst.right.value, (int, float)
        ):
            labels = left
            factor = float(inst.right.value)
        elif right and inst.op == "*" and isinstance(inst.left, Const) and isinstance(
            inst.left.value, (int, float)
        ):
            labels = right
            factor = float(inst.left.value)
        if factor is None or factor == 0:
            return
        if inst.op == "/":
            factor = 1.0 / factor
        self._emit(
            ScaleEvent(
                function=self.fn.name,
                block=block,
                location=inst.location,
                labels=Labels.of(labels),
                factor=factor,
                dest_temp=inst.dest.id,
                chain=self.chain,
            )
        )

    def _visit_cast(self, block: str, inst: Cast) -> None:
        labels = self._labels_of(inst.src)
        self._set_temp(inst.dest, labels)
        if isinstance(inst.src, Temp) and inst.src.id in self.temp_origin:
            self.temp_origin[inst.dest.id] = self.temp_origin[inst.src.id]
        if labels:
            self._emit(
                CastEvent(
                    function=self.fn.name,
                    block=block,
                    location=inst.location,
                    labels=Labels.of(labels),
                    type=inst.type,
                    chain=self.chain,
                )
            )

    def _visit_load_field(self, block: str, inst: LoadField) -> None:
        if isinstance(inst.base, Variable):
            scope = self._var_scope(inst.base)
            labels = self._loc_labels(scope, inst.base.name, inst.path)
            self._set_temp(inst.dest, labels)
            self.temp_origin[inst.dest.id] = (scope, inst.base.name, inst.path)
            return
        # Pointer-typed temp base.
        targets = self._ptr_targets(inst.base)
        if targets:
            union: LabelMap = {}
            for scope, name, path in sorted(targets):
                merge_labels(union, self._loc_labels(scope, name, path + inst.path))
            self._set_temp(inst.dest, union)
            if len(targets) == 1:
                scope, name, path = next(iter(targets))
                self.temp_origin[inst.dest.id] = (scope, name, path + inst.path)
            return
        self._set_temp(inst.dest, self._labels_of(inst.base))

    def _visit_store_field(self, block: str, inst: StoreField) -> None:
        labels = self._labels_of(inst.src)
        src_info = self._operand_info(inst.src)
        if isinstance(inst.base, Variable):
            scope = self._var_scope(inst.base)
            loc = (scope, inst.base.name, inst.path)
            target_labels = self._loc_labels(scope, inst.base.name, inst.path)
            if labels or target_labels or src_info.is_const:
                self._emit(
                    StoreEvent(
                        function=self.fn.name,
                        block=block,
                        location=inst.location,
                        target=loc,
                        target_labels=Labels.of(target_labels),
                        src_labels=Labels.of(labels),
                        src_const=src_info.const,
                        src_is_const=src_info.is_const,
                        chain=self.chain,
                    )
                )
            self._write_loc(scope, inst.base.name, inst.path, labels, extra_hops=1)
            return
        # Pointer-target sets are hash-ordered; iterate them sorted so
        # event/write order (and the hop counts it feeds) never depends
        # on the process's hash seed (docs/ARCHITECTURE.md, drift note).
        targets = self._ptr_targets(inst.base)
        for scope, name, path in sorted(targets):
            full = path + inst.path
            target_labels = self._loc_labels(scope, name, full)
            if labels or target_labels:
                self._emit(
                    StoreEvent(
                        function=self.fn.name,
                        block=block,
                        location=inst.location,
                        target=(scope, name, full),
                        target_labels=Labels.of(target_labels),
                        src_labels=Labels.of(labels),
                        src_const=src_info.const,
                        src_is_const=src_info.is_const,
                        chain=self.chain,
                    )
                )
            self._write_loc(scope, name, full, labels, extra_hops=1)

    def _visit_store_index(self, block: str, inst: StoreIndex) -> None:
        labels = self._labels_of(inst.src)
        if isinstance(inst.base, Variable) and labels:
            scope = self._var_scope(inst.base)
            self._write_loc(scope, inst.base.name, (), labels, extra_hops=1)

    def _visit_load_deref(self, block: str, inst: LoadDeref) -> None:
        targets = self._ptr_targets(inst.ptr)
        if targets:
            union: LabelMap = {}
            for scope, name, path in sorted(targets):
                merge_labels(union, self._loc_labels(scope, name, path))
            self._set_temp(inst.dest, union)
            if len(targets) == 1:
                self.temp_origin[inst.dest.id] = next(iter(targets))
            return
        self._set_temp(inst.dest, self._labels_of(inst.ptr))

    def _visit_store_deref(self, block: str, inst: StoreDeref) -> None:
        labels = self._labels_of(inst.src)
        src_info = self._operand_info(inst.src)
        targets = self._ptr_targets(inst.ptr)
        for scope, name, path in sorted(targets):
            target_labels = self._loc_labels(scope, name, path)
            if labels or target_labels:
                self._emit(
                    StoreEvent(
                        function=self.fn.name,
                        block=block,
                        location=inst.location,
                        target=(scope, name, path),
                        target_labels=Labels.of(target_labels),
                        src_labels=Labels.of(labels),
                        src_const=src_info.const,
                        src_is_const=src_info.is_const,
                        chain=self.chain,
                    )
                )
            self._write_loc(scope, name, path, labels, extra_hops=1)
        if targets:
            return
        # `*dest = v` where dest is a pointer parameter: record the
        # write in the summary so callers can map it back through
        # their AddrOf provenance.
        origin = (
            self.temp_origin.get(inst.ptr.id)
            if isinstance(inst.ptr, Temp)
            else None
        )
        if origin is not None:
            o_scope, o_name, o_path = origin
            if o_scope == self.fn.name and o_name in self.pointer_params and labels:
                writes = self.summary.param_writes.setdefault((o_name, o_path), {})
                if merge_labels(writes, labels, 1):
                    self.changed = True
                return
        # Otherwise: without alias analysis, a store through an
        # unresolved pointer is silently dropped (paper §4.3).

    def _visit_call(self, block: str, inst: Call) -> None:
        arg_labels = [self._labels_of(a) for a in inst.args]
        # Container-based getter: result is the named parameter.
        getter = self.engine.getters.get(inst.callee)
        if getter is not None and inst.dest is not None:
            if getter.key_arg_index < len(inst.args):
                key_op = inst.args[getter.key_arg_index]
                if isinstance(key_op, Const) and isinstance(key_op.value, str):
                    param = key_op.value
                    self.engine.parameters.add(param)
                    self._set_temp(inst.dest, {param: 0})

        if self.engine.module.has_function(inst.callee):
            self._visit_user_call(block, inst, arg_labels)
            return
        self._visit_library_call(block, inst, arg_labels)

    def _visit_user_call(self, block: str, inst: Call, arg_labels) -> None:
        fn_def = self.engine.module.function(inst.callee)
        assignment: dict[tuple[str, tuple], LabelMap] = {}
        ptr_args: dict[int, frozenset[LocKey]] = {}
        for i, arg in enumerate(inst.args):
            if i >= len(fn_def.params):
                break
            pname = fn_def.params[i].name
            if arg_labels[i]:
                assignment.setdefault((pname, ()), {}).update(arg_labels[i])
            targets = self._ptr_targets(arg)
            if targets:
                ptr_args[i] = targets
                # Labels under each pointed-to location map into the
                # callee parameter's field space.
                for target in sorted(targets):
                    for suffix, labels in self._labels_under(target).items():
                        assignment.setdefault((pname, suffix), {}).update(labels)
        site = CallSiteRef(self.fn.name, block, inst.location)
        summary = self.engine.summarize(
            inst.callee, assignment, self.chain + (site,)
        )
        if inst.dest is not None and summary.return_labels:
            self._set_temp(inst.dest, summary.return_labels)
        # Back-propagate writes through pointer arguments.
        for (pname, path), labels in summary.param_writes.items():
            for i, targets in ptr_args.items():
                if i < len(fn_def.params) and fn_def.params[i].name == pname:
                    for scope, name, tpath in sorted(targets):
                        self._write_loc(scope, name, tpath + path, labels, 0)

    def _labels_under(self, prefix: LocKey) -> dict[tuple[str, ...], LabelMap]:
        scope, name, path = prefix
        if scope == "global":
            return self.engine.labels_under(prefix)
        out: dict[tuple[str, ...], LabelMap] = {}
        for (l_name, l_path), labels in self.local_labels.items():
            if l_name == name and l_path[: len(path)] == path:
                out[l_path[len(path) :]] = labels
        return out

    def _visit_library_call(self, block: str, inst: Call, arg_labels) -> None:
        union: LabelMap = {}
        for labels in arg_labels:
            merge_labels(union, labels)
        if inst.dest is not None:
            self._set_temp(inst.dest, union)
        spec = self.engine.knowledge.get(inst.callee)
        const_args = tuple(
            (i, a.value) for i, a in enumerate(inst.args) if isinstance(a, Const)
        )
        for i, labels in enumerate(arg_labels):
            if not labels:
                continue
            self._emit(
                CallArgEvent(
                    function=self.fn.name,
                    block=block,
                    location=inst.location,
                    labels=Labels.of(labels),
                    callee=inst.callee,
                    arg_index=i,
                    other_const_args=const_args,
                    chain=self.chain,
                )
            )
            self._emit(
                UsageEvent(
                    function=self.fn.name,
                    block=block,
                    location=inst.location,
                    labels=Labels.of(labels),
                    kind="libcall",
                    chain=self.chain,
                )
            )
        if spec is not None and spec.comparison and len(inst.args) >= 2:
            self._visit_string_compare(block, inst, arg_labels, spec)
        if spec is not None and spec.out_args_from >= 0:
            self._visit_out_args(inst, arg_labels, spec)

    def _visit_out_args(self, inst: Call, arg_labels, spec) -> None:
        """sscanf-style out-parameters receive the input's labels."""
        incoming: LabelMap = {}
        for labels in arg_labels[: spec.out_args_from]:
            merge_labels(incoming, labels)
        if not incoming:
            return
        for arg in inst.args[spec.out_args_from :]:
            for scope, name, path in sorted(self._ptr_targets(arg)):
                self._write_loc(scope, name, path, incoming, extra_hops=0)

    def _visit_string_compare(self, block: str, inst: Call, arg_labels, spec) -> None:
        for tainted_i, other_i in ((0, 1), (1, 0)):
            labels = arg_labels[tainted_i]
            if not labels:
                continue
            other = inst.args[other_i]
            const_other = (
                other.value
                if isinstance(other, Const) and isinstance(other.value, str)
                else None
            )
            self._emit(
                StringCompareEvent(
                    function=self.fn.name,
                    block=block,
                    location=inst.location,
                    labels=Labels.of(labels),
                    callee=inst.callee,
                    const_other=const_other,
                    case_sensitive=bool(spec.case_sensitive),
                    dest_temp=inst.dest.id if inst.dest is not None else -1,
                    chain=self.chain,
                )
            )

    def _visit_call_indirect(self, block: str, inst: CallIndirect) -> None:
        union: LabelMap = {}
        for arg in inst.args:
            merge_labels(union, self._labels_of(arg))
        if inst.dest is not None:
            self._set_temp(inst.dest, union)

    def _visit_branch(self, block: str, inst: Branch) -> None:
        info = inst.cond_info
        if info is None:
            return
        left = self._operand_info(info.left)
        right = self._operand_info(info.right)
        if not left.labels and not right.labels:
            return
        cond_temp = inst.cond.id if isinstance(inst.cond, Temp) else -1
        left_temp = info.left.id if isinstance(info.left, Temp) else -1
        self._emit(
            BranchCondEvent(
                function=self.fn.name,
                block=block,
                location=inst.location,
                op=info.op,
                left=left,
                right=right,
                true_label=inst.true_label,
                false_label=inst.false_label,
                cond_temp=left_temp if left_temp >= 0 else cond_temp,
                chain=self.chain,
            )
        )
        union: LabelMap = {}
        merge_labels(union, left.labels.to_dict())
        merge_labels(union, right.labels.to_dict())
        self._emit(
            UsageEvent(
                function=self.fn.name,
                block=block,
                location=inst.location,
                labels=Labels.of(union),
                kind="branch",
                chain=self.chain,
            )
        )

    def _visit_switch(self, block: str, inst: SwitchInst) -> None:
        labels = self._labels_of(inst.subject)
        if not labels:
            return
        self._emit(
            SwitchCaseEvent(
                function=self.fn.name,
                block=block,
                location=inst.location,
                labels=Labels.of(labels),
                cases=tuple((c.value, lbl) for c, lbl in inst.cases),
                default_label=inst.default_label,
                chain=self.chain,
            )
        )
        self._emit(
            UsageEvent(
                function=self.fn.name,
                block=block,
                location=inst.location,
                labels=Labels.of(labels),
                kind="branch",
                chain=self.chain,
            )
        )


# Instruction type -> handler; `Jump` and `Unreachable` carry no data.
_HANDLERS = {
    Assign: _FunctionAnalysis._visit_assign,
    BinOp: _FunctionAnalysis._visit_binop,
    UnOp: _FunctionAnalysis._visit_unop,
    Cast: _FunctionAnalysis._visit_cast,
    LoadField: _FunctionAnalysis._visit_load_field,
    StoreField: _FunctionAnalysis._visit_store_field,
    LoadIndex: _FunctionAnalysis._visit_load_index,
    StoreIndex: _FunctionAnalysis._visit_store_index,
    AddrOf: _FunctionAnalysis._visit_addr_of,
    LoadDeref: _FunctionAnalysis._visit_load_deref,
    StoreDeref: _FunctionAnalysis._visit_store_deref,
    Call: _FunctionAnalysis._visit_call,
    CallIndirect: _FunctionAnalysis._visit_call_indirect,
    Branch: _FunctionAnalysis._visit_branch,
    SwitchInst: _FunctionAnalysis._visit_switch,
    Ret: _FunctionAnalysis._visit_ret,
}
