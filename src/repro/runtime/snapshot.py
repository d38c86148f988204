"""Warm-boot snapshots - the launch engine's replay layer.

Every launch of one (system, config) pair executes an identical boot
prefix: `main()` reads the config file, validates it, binds ports and
initializes tables before it ever touches the functional-test request
queue.  The harness launches the same config repeatedly - once for
startup classification, then once per functional test - so the prefix
is re-interpreted over and over.

This module replays it instead.  `main`'s *top-level* statements are
executed one at a time (each statement runs through exactly the same
per-statement machinery as a plain launch, so semantics are
bit-identical); the emulated OS counts `next_request` polls, and the
index of the first top-level statement during which a poll happens is
the **boot boundary**: everything before it is request-independent.

Per (system, config text, interpreter options) a `BootRecord` evolves
over launches:

1. *probe* - the first launch runs normally and learns the boundary;
2. *capture* - the second launch re-runs the prefix, deep-copies the
   full interpreter + OS state right before the boundary statement
   (with the request queue normalized to empty), then continues;
3. *resume* - every later launch restores a copy of the snapshot,
   installs its own request queue, and executes only the statements
   from the boundary on.

Resumed runs produce the same `ProcessResult` a cold run would - same
verdicts, logs, responses and `steps` counts (the step counter is part
of the captured state) - which the parity suite enforces.  A config
whose boot never polls (e.g. it exits or crashes during startup) gets
`boundary=None` and keeps launching cold; those configs launch once
per unique request set anyway, and the launch cache above this layer
already deduplicates them.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

from repro.lang.ast_nodes import FunctionDef
from repro.lang.program import Program
from repro.lang.source import Location
from repro.runtime.codegen import CodegenPlan, codegen_plan_for
from repro.runtime.faults import ExitProcess, StackOverflowFault
from repro.runtime.interpreter import (
    Frame,
    Interpreter,
    InterpreterOptions,
    _ReturnSignal,
    _StaticMarker,
)
from repro.obs.profile import default_profiler
from repro.runtime.os_model import EmulatedOS, FileNode, LogRecord
from repro.runtime.process import ProcessResult, capture_outcome
from repro.runtime.values import (
    ArrayValue,
    BoxSlot,
    ElemSlot,
    FieldSlot,
    FileHandle,
    FunctionRef,
    Pointer,
    SparseArrayValue,
    StructValue,
    VarSlot,
    coerce,
    zero_value,
)

from repro.lang import types as ct

#: The launch-plan lowering step under its engine-neutral name.
#: `boot_launch` calls `codegen_plan_for`; both names stay bound here
#: so instrumentation that wraps the lowering by name
#: (`perfbench/tracing.py`) finds either one.
plan_for = codegen_plan_for


@dataclass
class BootSnapshot:
    """Captured pre-boundary state plus the index of the first
    request-touching top-level statement.

    The bundle is held as a private structure-copied bundle
    (`slim_state`) and each resume takes a **copy-on-write restore**
    through its `copier`: immutable state (strings, numbers, `CType`
    tables, locations, log records) is shared by reference, and so is
    every array whose elements all are (the `items` list is marked
    shared and privatized by the resume's first write to it - see
    `StateBundleCopier`).  Only the rest of the mutable spine - dicts,
    lists, frames, struct/array values, slots, file nodes, the
    `EmulatedOS` - is rebuilt.  Identity relations inside the bundle
    (a `Pointer` into the globals dict, a shared `FileHandle`) survive
    the copy exactly as they did under pickle.

    Capture scans the live state once and `StateBundleCopier.fork`s
    it: `slim_state` is the fork's private copy and `copier` carries
    the live scan's recipe translated to it, so no resume rescans.

    `state` is the legacy deep-copy fallback for bundles the
    structure copier refuses.
    """

    boundary: int
    state: dict | None = None
    slim_state: dict | None = None
    # Purity recipe over `slim_state`, set at capture (it holds
    # `id()`s into this process's bundle).
    copier: "StateBundleCopier | None" = field(
        default=None, repr=False, compare=False
    )

    def materialize(self, program: Program) -> dict:
        """An independent copy of the captured state bundle.

        `global_types` is rebuilt from the program rather than stored:
        it is exactly `_init_globals`' pass-1 mapping (name -> declared
        type), immutable after init, and copying its type objects per
        resume would be pure waste.
        """
        if self.copier is not None:
            state = self.copier.copy()
            state["global_types"] = _global_types_of(program)
            return state
        return copy.deepcopy(self.state)


def _global_types_of(program: Program) -> dict:
    return {name: decl.type for name, decl in program.globals.items()}


# -- copy-on-write state restore ---------------------------------------------
#
# `Interpreter.STATE_FIELDS` closes over a small, known universe of
# runtime classes.  `StateBundleCopier` walks that graph,
# rebuilding only the mutable spine and sharing every immutable leaf
# (numbers, strings, `CType` tables, `Location`s, log records, static
# markers) by reference.  The memo is `copy.deepcopy`-compatible
# (id(original) -> copy), so any type the dispatcher does not know
# falls back to a `deepcopy` that still honours identity relations
# with the rest of the bundle.

#: Leaf values shared by reference: immutable, or never mutated after
#: creation by any runtime path (LogRecord lines are append-only at
#: the list level; FunctionRef/_StaticMarker are read-only tokens).
_SHARED_LEAF_TYPES = (
    ct.CType,
    Location,
    LogRecord,
    FunctionRef,
    _StaticMarker,
)

_ATOMIC_TYPES = frozenset(
    (type(None), bool, int, float, complex, str, bytes, frozenset)
)

#: Memo key (never an `id()` int) carrying the precomputed fixup map
#: for this copy - see `StateBundleCopier`.
_FIXUPS_KEY = "__container_fixups__"

#: type -> "instances are shareable by reference" (atomic or a shared
#: leaf class); memoized because the scan asks per element type, not
#: per element.
_SHAREABLE_CACHE: dict[type, bool] = {t: True for t in _ATOMIC_TYPES}


def _shareable_type(kind: type) -> bool:
    known = _SHAREABLE_CACHE.get(kind)
    if known is None:
        known = issubclass(kind, _SHARED_LEAF_TYPES)
        _SHAREABLE_CACHE[kind] = known
    return known


def _copy_value(obj, memo):
    if type(obj) in _ATOMIC_TYPES:
        return obj
    found = memo.get(id(obj))
    if found is not None:
        return found
    copier = _COPIERS.get(type(obj))
    if copier is not None:
        return copier(obj, memo)
    if isinstance(obj, _SHARED_LEAF_TYPES):
        return obj
    # Exotic value planted by a custom builtin: deepcopy shares our
    # memo, so identity relations with the known spine still hold.
    return copy.deepcopy(obj, memo)


def _copy_dict(obj, memo):
    fixups = memo.get(_FIXUPS_KEY)
    if fixups is not None:
        impure_keys = fixups.get(id(obj))
        if impure_keys is not None:
            # One C-level copy shares every shareable value; only the
            # precomputed impure keys are rewritten recursively.
            new = dict(obj)
            memo[id(obj)] = new
            for key in impure_keys:
                new[key] = _copy_value(obj[key], memo)
            return new
    new = {}
    memo[id(obj)] = new
    for key, value in obj.items():
        # Keys are strings / (function, name) tuples - immutable.
        new[key] = _copy_value(value, memo)
    return new


def _copy_list(obj, memo):
    fixups = memo.get(_FIXUPS_KEY)
    if fixups is not None:
        impure_indices = fixups.get(id(obj))
        if impure_indices is not None:
            new = obj.copy()  # C-level; shareable elements ride along
            memo[id(obj)] = new
            for index in impure_indices:
                new[index] = _copy_value(obj[index], memo)
            return new
    new = []
    memo[id(obj)] = new
    for value in obj:
        new.append(_copy_value(value, memo))
    return new


def _copy_tuple(obj, memo):
    fixups = memo.get(_FIXUPS_KEY)
    if fixups is not None and id(obj) in fixups:
        # Immutable container of shareables: the tuple itself is
        # shareable by reference.
        memo[id(obj)] = obj
        return obj
    new = tuple(_copy_value(value, memo) for value in obj)
    memo[id(obj)] = new
    return new


def _copy_set(obj, memo):
    fixups = memo.get(_FIXUPS_KEY)
    if fixups is not None and id(obj) in fixups:
        new = obj.copy()  # every member shareable: one C-level copy
        memo[id(obj)] = new
        return new
    new = {_copy_value(value, memo) for value in obj}
    memo[id(obj)] = new
    return new


def _copy_frame(obj, memo):
    new = Frame(function=obj.function)
    memo[id(obj)] = new
    # The locals dict is aliased by VarSlots (&local), so it travels
    # through the memo as a first-class object in its own right.
    new.locals = _copy_value(obj.locals, memo)
    new.local_types = dict(obj.local_types)  # name -> CType, shared
    return new


def _copy_struct(obj, memo):
    new = StructValue.__new__(StructValue)
    memo[id(obj)] = new
    new.struct_name = obj.struct_name
    new.field_types = obj.field_types  # per-struct table, immutable
    new.fields = _copy_value(obj.fields, memo)
    return new


def _copy_array(obj, memo):
    new = ArrayValue.__new__(ArrayValue)
    memo[id(obj)] = new
    new.element_type = obj.element_type
    items = obj.items
    fixups = memo.get(_FIXUPS_KEY)
    if fixups is not None and fixups.get(id(items)) == ():
        # Every element is shareable: share the list itself, copy-on-
        # write.  Both sides are marked, so whichever writes first
        # (`ArrayValue.set`/`memset`) privatizes its own copy.
        memo[id(items)] = items
        new.items = items
        obj.shared = new.shared = True
        return new
    new.items = _copy_value(items, memo)
    new.shared = False
    return new


def _copy_sparse_array(obj, memo):
    new = SparseArrayValue.__new__(SparseArrayValue)
    memo[id(obj)] = new
    new.element_type = obj.element_type
    new.items = None
    new.length = obj.length
    new.cells = _copy_value(obj.cells, memo)
    return new


def _copy_var_slot(obj, memo):
    new = VarSlot.__new__(VarSlot)
    memo[id(obj)] = new
    new.env = _copy_value(obj.env, memo)  # identity with globals/locals
    new.name = obj.name
    new.declared_type = obj.declared_type
    return new


def _copy_field_slot(obj, memo):
    new = FieldSlot.__new__(FieldSlot)
    memo[id(obj)] = new
    new.base = _copy_value(obj.base, memo)
    new.field_name = obj.field_name
    return new


def _copy_elem_slot(obj, memo):
    new = ElemSlot.__new__(ElemSlot)
    memo[id(obj)] = new
    new.base = _copy_value(obj.base, memo)
    new.index = obj.index
    return new


def _copy_box_slot(obj, memo):
    new = BoxSlot.__new__(BoxSlot)
    memo[id(obj)] = new
    new.value = _copy_value(obj.value, memo)
    new.declared_type = obj.declared_type
    return new


def _copy_pointer(obj, memo):
    slot = _copy_value(obj.slot, memo)
    new = Pointer(slot)
    memo[id(obj)] = new
    return new


def _copy_file_handle(obj, memo):
    new = FileHandle(
        fd=obj.fd,
        path=obj.path,
        mode=obj.mode,
        is_dir=obj.is_dir,
        read_pos=obj.read_pos,
        lines=list(obj.lines),  # lines are strings, shared
        closed=obj.closed,
    )
    memo[id(obj)] = new
    return new


def _copy_file_node(obj, memo):
    new = FileNode.__new__(FileNode)
    memo[id(obj)] = new
    new.__dict__.update(obj.__dict__)  # every field is an immutable scalar
    return new


def _copy_os(obj, memo):
    new = EmulatedOS.__new__(EmulatedOS)
    memo[id(obj)] = new
    for key, value in obj.__dict__.items():
        new.__dict__[key] = _copy_value(value, memo)
    return new


_COPIERS = {
    dict: _copy_dict,
    list: _copy_list,
    tuple: _copy_tuple,
    set: _copy_set,
    Frame: _copy_frame,
    StructValue: _copy_struct,
    ArrayValue: _copy_array,
    SparseArrayValue: _copy_sparse_array,
    VarSlot: _copy_var_slot,
    FieldSlot: _copy_field_slot,
    ElemSlot: _copy_elem_slot,
    BoxSlot: _copy_box_slot,
    Pointer: _copy_pointer,
    FileHandle: _copy_file_handle,
    FileNode: _copy_file_node,
    EmulatedOS: _copy_os,
}

#: Runtime classes' mutable fields the purity scan descends into
#: (the copiers above always privatize the objects themselves).
_SCAN_FIELDS = {
    Frame: ("locals",),
    StructValue: ("fields",),
    ArrayValue: ("items",),
    SparseArrayValue: ("cells",),
    VarSlot: ("env",),
    FieldSlot: ("base",),
    ElemSlot: ("base",),
    BoxSlot: ("value",),
    Pointer: ("slot",),
    FileHandle: (),
    FileNode: (),
}


def _scan_fixups(obj, fixups: dict[int, tuple], seen: set[int]) -> None:
    """Precompute each container's copy recipe.

    For a dict or list the recipe is the tuple of keys/indices whose
    values are NOT shareable by reference: every copy then starts from
    one C-level `dict()`/`list.copy()` and rewrites only those slots.
    A `count(0)` (all zeros) or `set(map(type, ...))` probe keeps the
    all-shareable check at C speed, so a 64k-element int array costs
    one C-level pass here instead of 64k Python-level copy calls on
    every restore.  Sets and tuples
    get a recipe only when fully shareable (tuples are then shared
    outright - immutable containers of immutables).  A list recipe of
    ``()`` also lets `_copy_array` share an array's `items` list
    copy-on-write instead of copying it."""
    kind = type(obj)
    if _shareable_type(kind):
        return
    key = id(obj)
    if key in seen:
        return
    seen.add(key)
    if kind is list and obj and obj[0] == 0 and obj.count(0) == len(obj):
        # All zeros (a fresh `malloc` arena, a zeroed array): one
        # C-level count instead of a per-element type probe.  Only
        # numbers compare equal to 0 among runtime values.
        fixups[key] = ()
        return
    if kind is dict:
        kinds = set(map(type, obj.values()))
        if all(_shareable_type(k) for k in kinds):
            fixups[key] = ()
            return
        impure = tuple(
            k for k, v in obj.items() if not _shareable_type(type(v))
        )
        fixups[key] = impure
        for k in impure:
            _scan_fixups(obj[k], fixups, seen)
    elif kind is list:
        kinds = set(map(type, obj))
        if all(_shareable_type(k) for k in kinds):
            fixups[key] = ()
            return
        impure = tuple(
            i for i, v in enumerate(obj) if not _shareable_type(type(v))
        )
        fixups[key] = impure
        for i in impure:
            _scan_fixups(obj[i], fixups, seen)
    elif kind is set or kind is tuple:
        kinds = set(map(type, obj))
        if all(_shareable_type(k) for k in kinds):
            fixups[key] = ()
            return
        for value in obj:
            _scan_fixups(value, fixups, seen)
    elif kind is EmulatedOS:
        for value in obj.__dict__.values():
            _scan_fixups(value, fixups, seen)
    else:
        for name in _SCAN_FIELDS.get(kind, ()):
            _scan_fixups(getattr(obj, name), fixups, seen)


class StateBundleCopier:
    """Amortized copy-on-write copier for one frozen state bundle.

    The fixup scan runs once; every `copy()` after that duplicates
    containers with one C-level `dict()`/`list.copy()` plus targeted
    rewrites of their few mutable slots, shares all-immutable tuples
    outright, and shares each all-shareable `ArrayValue.items` list
    with the copy (the **shared-array invariant**: both arrays are
    marked `shared`, and the first write through either privatizes
    its own list, so no write is ever seen through another bundle).
    A resume therefore pays for the arrays it writes, not for every
    array the bundle holds.  Resumed runs mutate only the copies,
    never the source bundle, so the scan never goes stale.

    `fork()` is how a live bundle becomes a frozen one: it copies the
    bundle and builds the copy's recipe by translating this one
    through the copy memo, so one purity scan serves both.  `fixups`
    is that translated recipe; it holds `id()`s into `state`, so a
    copier never leaves its process.
    """

    __slots__ = ("state", "_fixups")

    def __init__(
        self, state: dict, fixups: dict[int, tuple] | None = None
    ) -> None:
        self.state = state
        if fixups is None:
            fixups = {}
            _scan_fixups(state, fixups, set())
        self._fixups = fixups

    def copy(self) -> dict:
        """An independent copy of the bundle: semantically
        `copy.deepcopy(state)` - no write through the runtime's
        writers is ever observed through the other side, and identity
        relations inside the bundle survive."""
        return _copy_value(self.state, {_FIXUPS_KEY: self._fixups})

    def fork(self) -> "StateBundleCopier":
        """A copier over a fresh private copy of this bundle, its
        recipe translated through the memo rather than rescanned.

        The copy has the same shape as the source - every scanned
        container maps to its copy (or, when shared outright, to
        itself), and a slot impure in the source stays impure in the
        copy - so the translated recipe equals a fresh scan of it."""
        memo: dict = {_FIXUPS_KEY: self._fixups}
        state = _copy_value(self.state, memo)
        fixups = {
            id(memo[key]): recipe for key, recipe in self._fixups.items()
        }
        return StateBundleCopier(state, fixups)


@dataclass
class BootStats:
    """Work accounting for one snapshot store."""

    resumes: int = 0  # launches served from a warm snapshot
    boots: int = 0  # full boots (probe or capture runs)
    captures: int = 0  # snapshots taken

    def snapshot(self) -> dict[str, int]:
        return {
            "resumes": self.resumes,
            "boots": self.boots,
            "captures": self.captures,
        }

    def absorb(self, delta: dict[str, int]) -> None:
        self.resumes += delta.get("resumes", 0)
        self.boots += delta.get("boots", 0)
        self.captures += delta.get("captures", 0)


@dataclass
class BootRecord:
    """What one (system, config, options) key has learned so far.

    Mutated in place across launches; all transitions are idempotent
    and derived from deterministic runs, so concurrent writers (thread
    executors sharing a snapshot cache) can only race to store
    equivalent values.
    """

    probed: bool = False
    boundary: int | None = None
    snapshot: BootSnapshot | None = None

    @property
    def can_resume(self) -> bool:
        return self.snapshot is not None


class BoundaryHint:
    """Speculative per-(system, options) boot boundary.

    All configs of one system that boot successfully reach the same
    serve statement, so once any config has learned the boundary,
    later configs capture their snapshot during their *first* run
    (merging the probe and capture boots into one).  The hint is only
    ever a speculation: a run whose observed boundary disagrees
    discards the speculative snapshot, so a wrong hint costs one extra
    boot, never correctness.
    """

    __slots__ = ("index",)

    def __init__(self) -> None:
        self.index: int | None = None


def boot_launch(
    program: Program,
    make_os,
    argv: list[str] | None,
    options: InterpreterOptions | None,
    record: BootRecord,
    requests: list[str] | None = None,
    stats: BootStats | None = None,
    hint: BoundaryHint | None = None,
) -> ProcessResult:
    """Launch `program`, replaying from `record`'s snapshot when one
    exists and teaching the record otherwise.

    `make_os` is a zero-argument factory producing this launch's
    freshly configured `EmulatedOS` (config installed, no requests);
    it is only invoked on cold boots - the resume path needs nothing
    from it, the snapshot supplies the whole world.
    """
    options = options if options is not None else InterpreterOptions()
    plan = codegen_plan_for(program) if options.engine == "codegen" else None
    # Sampled profiling (repro.obs): every Nth launch times its whole
    # phase - replay (resumed) or boot (cold) - and records the step
    # budget actually consumed.  Off-sample launches pay one counter.
    profiler = default_profiler()
    sampled = profiler.should_sample()
    begun = time.perf_counter() if sampled else 0.0
    if record.snapshot is not None:
        if stats is not None:
            stats.resumes += 1
        result = _resume(program, requests, options, plan, record)
        if sampled:
            profiler.record_phase("replay", time.perf_counter() - begun)
            profiler.record_steps(result.steps)
        return result
    if stats is not None:
        stats.boots += 1
    os_model = make_os()
    if requests:
        os_model.queue_requests(requests)
    interp = _fresh_interpreter(program, os_model, options, plan)
    result = capture_outcome(
        interp, lambda: _run_stepwise(interp, argv, record, plan, hint, stats)
    )
    if sampled:
        profiler.record_phase("boot", time.perf_counter() - begun)
        profiler.record_steps(result.steps)
    return result


def _fresh_interpreter(
    program: Program,
    os_model: EmulatedOS,
    options: InterpreterOptions,
    plan: CodegenPlan | None,
) -> Interpreter:
    """A cold interpreter, via the plan's global-init template when the
    program's global initializers are call-free (then the initialized
    state is a pure function of the program, so one copy-on-write
    restore replaces re-running `_init_globals` on every launch)."""
    if plan is None or not plan.globals_pure:
        return Interpreter(program, os_model, options, plan=plan)
    template = plan.globals_template
    if template is None:
        interp = Interpreter(program, os_model, options, plan=plan)
        bundle = dict(interp.state_bundle())
        bundle.pop("os")
        bundle.pop("global_types")
        try:
            # Privatize once; every later cold boot restores from this
            # bundle copy-on-write instead of re-running the inits.
            plan.globals_template = StateBundleCopier(bundle).fork()
        except Exception:
            # Uncopyable initializer values: template disabled.
            plan.globals_pure = False
        return interp
    state = template.copy()
    state["os"] = os_model
    state["global_types"] = _global_types_of(program)
    return Interpreter.from_state(program, state, options, plan=plan)


# -- stepwise execution ------------------------------------------------------


def _main_runners(program: Program, plan: CodegenPlan | None) -> tuple:
    """Per-top-level-statement runners for main, engine-appropriate.

    Codegen plans carry their generated statement functions; the tree
    engine wraps each statement in an `exec_stmt` call.  Either way one
    runner executes one statement with full launch semantics.
    """
    if plan is not None:
        return plan.main_steps
    body = program.function("main").body
    if body is None:
        return ()
    return tuple(
        (lambda rt, _stmt=stmt: rt.exec_stmt(_stmt))
        for stmt in body.statements
    )


def _main_args(main: FunctionDef, argv: list[str] | None) -> list:
    """`run_main`'s argc/argv binding, verbatim."""
    argv = argv if argv is not None else ["prog"]
    if len(main.params) >= 2:
        return [len(argv), ArrayValue(ct.STRING, list(argv))]
    if len(main.params) == 1:
        return [len(argv)]
    return []


def _push_main_frame(interp: Interpreter, main: FunctionDef, args: list) -> None:
    """`call_function`'s prologue for main, verbatim."""
    if len(interp.frames) >= interp._max_call_depth:
        raise StackOverflowFault(
            f"call depth exceeded in {main.name}", main.location
        )
    frame = Frame(function=main.name)
    for i, param in enumerate(main.params):
        value = args[i] if i < len(args) else zero_value(param.type)
        frame.locals[param.name] = coerce(param.type, value)
        frame.local_types[param.name] = param.type
    if main.variadic:
        frame.locals["__varargs"] = list(args[len(main.params):])
    interp.frames.append(frame)


def _exit_code(main: FunctionDef, result: object) -> int:
    """`run_main`'s result-to-exit-code mapping, verbatim."""
    if isinstance(result, int):
        return result
    return 0


def _run_stepwise(
    interp: Interpreter,
    argv: list[str] | None,
    record: BootRecord,
    plan: CodegenPlan | None,
    hint: BoundaryHint | None = None,
    stats: BootStats | None = None,
) -> int:
    """Execute main() top-level statement by statement.

    Equivalent to `Interpreter.run_main` (the statements run through
    the same per-statement machinery `exec_block`/a generated body
    would drive), with two additions between statements: learning the
    boot boundary, and capturing the snapshot.  On a probe run with a
    `hint` the capture is speculative - taken at the hinted index and
    discarded if the observed boundary disagrees - so most configs
    need only one cold boot.
    """
    program = interp.program
    main = program.function("main")
    runners = _main_runners(program, plan)
    if record.probed:
        # Known boundary, missing snapshot: a dedicated capture run.
        capture_at = record.boundary
        learning = False
    else:
        capture_at = hint.index if hint is not None else None
        learning = True
    boundary: int | None = None
    speculative: BootSnapshot | None = None
    os_model = interp.os
    try:
        try:
            _push_main_frame(interp, main, _main_args(main, argv))
            try:
                for index, run_stmt in enumerate(runners):
                    if index == capture_at:
                        if stats is not None:
                            stats.captures += 1
                        if learning:
                            speculative = _capture(interp, index)
                        else:
                            record.snapshot = _capture(interp, index)
                    if learning:
                        polls_before = os_model.request_polls
                        try:
                            run_stmt(interp)
                        finally:
                            if (
                                boundary is None
                                and os_model.request_polls > polls_before
                            ):
                                boundary = index
                    else:
                        run_stmt(interp)
                result: object = zero_value(main.return_type)
            except _ReturnSignal as ret:
                result = coerce(main.return_type, ret.value)
            finally:
                interp.frames.pop()
        finally:
            if learning:
                record.probed = True
                record.boundary = boundary
                if (
                    speculative is not None
                    and boundary is not None
                    and boundary >= speculative.boundary
                ):
                    # The first poll happened at (or after) the
                    # speculative capture point, so the captured state
                    # is request-independent; resumes replay from the
                    # capture index.  An earlier poll means the
                    # speculation read request-touched state: discard.
                    record.snapshot = speculative
                    record.boundary = speculative.boundary
                if hint is not None and boundary is not None:
                    hint.index = boundary
        return _exit_code(main, result)
    except ExitProcess as exit_:
        return exit_.code


# -- capture and resume ------------------------------------------------------


def _capture(interp: Interpreter, boundary: int) -> BootSnapshot:
    """Capture the interpreter's full state bundle, with the OS
    request queue normalized to empty.

    The boot prefix never touches the queue (by the boundary's
    definition), so the captured state is request-independent; resumed
    launches install their own queue.  One copy-on-write fork (or a
    fallback deepcopy) over the whole bundle preserves identity
    relations (pointers into environment dicts, shared file handles);
    the live run keeps going on arrays now shared with the snapshot,
    privatizing each one it writes.
    """
    os_model = interp.os
    saved_requests = os_model.requests
    os_model.requests = []
    try:
        bundle = dict(interp.state_bundle())
        slim = dict(bundle)
        slim.pop("global_types")  # rebuilt from the program on resume
        try:
            private = StateBundleCopier(slim).fork()
        except Exception:
            # Uncopyable state (e.g. a custom builtin planted a value
            # even deepcopy refuses): keep a live deep copy instead.
            return BootSnapshot(boundary=boundary, state=copy.deepcopy(bundle))
        return BootSnapshot(
            boundary=boundary, slim_state=private.state, copier=private
        )
    finally:
        os_model.requests = saved_requests


def _resume(
    program: Program,
    requests: list[str] | None,
    options: InterpreterOptions,
    plan: CodegenPlan | None,
    record: BootRecord,
) -> ProcessResult:
    """Rebuild an interpreter from the snapshot and run only main's
    post-boundary statements against this launch's request queue."""
    snapshot = record.snapshot
    interp = Interpreter.from_state(
        program, snapshot.materialize(program), options, plan=plan
    )
    # Install this launch's queue only: the snapshot already holds the
    # post-queue, pre-boundary state (cursor 0, plus any responses the
    # boot prefix itself produced - which a cold run would keep).
    interp.os.requests = list(requests) if requests else []
    main = program.function("main")
    tail = _main_runners(program, plan)[snapshot.boundary:]

    def run_tail() -> int:
        try:
            try:
                try:
                    for run_stmt in tail:
                        run_stmt(interp)
                    result: object = zero_value(main.return_type)
                except _ReturnSignal as ret:
                    result = coerce(main.return_type, ret.value)
            finally:
                interp.frames.pop()
            return _exit_code(main, result)
        except ExitProcess as exit_:
            return exit_.code

    return capture_outcome(interp, run_tail)
