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

1. *first run* - the first launch boots cold and learns the boundary.
   Once any config of the system has learned it (the per-system
   `BoundaryHint`), the first run also captures the snapshot at the
   hinted index and keeps it if the observed boundary agrees, so most
   configs boot exactly once;
2. *capture* - a config whose first run kept no snapshot (no hint yet,
   or a wrong one) re-boots on its second launch and captures right
   before the boundary statement;
3. *resume* - every later launch restores a copy-on-write copy of the
   snapshot (`StateBundleCopier`), installs its own request queue, and
   executes only the statements from the boundary on.

A capture forks the full interpreter + OS state with the request queue
normalized to empty.  Resumed runs produce the same `ProcessResult` a
cold run would - same verdicts, logs, responses and `steps` counts (the
step counter is part of the captured state) - which the parity suite
enforces.  A config whose boot never polls (e.g. it exits or crashes
during startup) gets `boundary=None` and keeps launching cold: every
launch of it runs the whole program again.

What a restore shares by reference - the state no launch ever writes,
so no write can be seen through another bundle:

- *immutable values*: numbers, strings, `CType`s, locations, log
  records, function refs and static markers;
- *pointers to named slots*: `&global` is `Pointer(GlobalSlot(name))`
  and `&errno` is `Pointer(ERRNO_SLOT)`.  Neither slot holds storage -
  every access resolves through the running interpreter (`rt.globals`,
  `rt.errno`) - so the same pointer object means the right variable in
  the capture run, the snapshot and every resume;
- *constant globals*: an option table (`{name, &variable, default,
  min, max}` rows) is written by `_init_globals` and never again.
  `constant_globals` proves that syntactically for a program (every
  use is a ``g[i].field`` read), and `_shared_constants` admits the
  live value only when every field is itself shared by reference, so
  a read can never hand out a mutable alias into the table;
- *file nodes*: `FileNode` is frozen and its writers swap a new node
  into `EmulatedOS.files`, so the files dict restores with one C-level
  copy;
- *the item list of an array of such values*, copy-on-write
  (`ArrayValue.shared`).

Everything else - dicts, lists, frames, struct and array values that
can be written, slots into them, file handles, the `EmulatedOS` - is
rebuilt per restore; `launch.restore_objects` records how many objects
that is for each snapshot.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

from repro.lang.ast_nodes import (
    Assign,
    FunctionDef,
    Identifier,
    IncDec,
    Index,
    Member,
    Node,
    Unary,
)
from repro.lang.program import Program
from repro.lang.source import Location
from repro.runtime.codegen import CodegenPlan, codegen_plan_for
from repro.runtime.faults import ExitProcess, StackOverflowFault
from repro.runtime.interpreter import (
    MAX_CALL_DEPTH,
    Frame,
    Interpreter,
    InterpreterOptions,
    _ReturnSignal,
    _StaticMarker,
)
from repro.obs.metrics import get_registry
from repro.obs.profile import default_profiler
from repro.runtime.os_model import EmulatedOS, FileNode, LogRecord
from repro.runtime.process import ProcessResult, capture_outcome
from repro.runtime.values import (
    ArrayValue,
    ElemSlot,
    ErrnoSlot,
    FieldSlot,
    FileHandle,
    FunctionRef,
    GlobalSlot,
    Pointer,
    SparseArrayValue,
    StructValue,
    VarSlot,
    coerce,
    zero_value,
)
from repro.store import ContentCache, Counters, content_key

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
    through its `copier`: what no launch writes (see the module
    docstring) is shared by reference, and so is every array whose
    elements all are (the `items` list is marked shared and privatized
    by the resume's first write to it - see `StateBundleCopier`).
    Only the rest of the mutable spine - dicts, lists, frames,
    writable struct/array values, slots into them, file handles, the
    `EmulatedOS` - is rebuilt.  Identity relations inside the bundle
    (a `Pointer` into a struct, a shared `FileHandle`) survive the
    copy exactly as they did under pickle.

    Capture scans the live state once and `StateBundleCopier.fork`s
    it: `slim_state` is the fork's private copy and `copier` carries
    the live scan's recipe translated to it, so no resume rescans.
    """

    boundary: int
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
        state = self.copier.copy()
        state["global_types"] = _global_types_of(program)
        return state


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
#: the list level; FunctionRef/_StaticMarker are read-only tokens;
#: a FileNode is frozen and its writers swap a new node into
#: `EmulatedOS.files`; the named slots hold no storage - they resolve
#: through the running interpreter - so a `Pointer` to one is
#: immutable too, see `_shareable_value`).
_SHARED_LEAF_TYPES = (
    ct.CType,
    Location,
    LogRecord,
    FunctionRef,
    _StaticMarker,
    FileNode,
    GlobalSlot,
    ErrnoSlot,
)

_ATOMIC_TYPES = frozenset(
    (type(None), bool, int, float, complex, str, bytes, frozenset)
)

#: Buckets of the `launch.restore_objects` histogram: the objects each
#: restore of one snapshot rebuilds, recorded once per capture.
RESTORE_OBJECT_BUCKETS = (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)

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


def _shareable_value(value) -> bool:
    """Atomic, a shared leaf, or a pointer to a named slot (`&global`,
    `&errno`): a frozen `Pointer` over storage-free slot is immutable."""
    kind = type(value)
    return _shareable_type(kind) or (
        kind is Pointer and _shareable_type(type(value.slot))
    )


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


def _copy_pointer(obj, memo):
    if _shareable_type(type(obj.slot)):
        return obj  # a named slot: the pointer is immutable
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
    Pointer: _copy_pointer,
    FileHandle: _copy_file_handle,
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
    Pointer: ("slot",),
    FileHandle: (),
}


def _scan_fixups(
    obj, fixups: dict[int, tuple], seen: set[int], shared: frozenset[int]
) -> None:
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
    copy-on-write instead of copying it.  `shared` holds the `id()`s
    of values shared by reference whatever their type (constant
    globals, see `_shared_constants`)."""
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
    if kind is dict or kind is list:
        values = obj.values() if kind is dict else obj
        kinds = set(map(type, values))
        if all(_shareable_type(k) for k in kinds):
            fixups[key] = ()
            return
        pairs = obj.items() if kind is dict else enumerate(obj)
        impure = tuple(
            k for k, v in pairs
            if not _shareable_value(v) and id(v) not in shared
        )
        fixups[key] = impure
        for k in impure:
            _scan_fixups(obj[k], fixups, seen, shared)
    elif kind is set or kind is tuple:
        kinds = set(map(type, obj))
        if all(_shareable_type(k) for k in kinds):
            fixups[key] = ()
            return
        for value in obj:
            _scan_fixups(value, fixups, seen, shared)
    elif kind is EmulatedOS:
        for value in obj.__dict__.values():
            _scan_fixups(value, fixups, seen, shared)
    else:
        for name in _SCAN_FIELDS.get(kind, ()):
            _scan_fixups(getattr(obj, name), fixups, seen, shared)


# -- constant globals ---------------------------------------------------------
#
# Option tables (`{name, &variable, default, min, max}` rows, like
# MySQL's `sys_var` or PostgreSQL's `ConfigureNamesInt`) are written by
# `_init_globals` and never again.  `constant_globals` proves that
# syntactically; `_shared_constants` checks the live value is one
# level of rows over immutable leaves, and the copier then shares it
# by reference instead of rebuilding every row on every restore.


def constant_globals(program: Program) -> frozenset[str]:
    """The globals of `program` no launch can write, memoized on the
    program (both engines' captures and the global-init template read
    the same answer).

    A global is constant when every use of its name - in any function
    body or global initializer - is a ``g[i].field`` rvalue read: not
    the target of an assignment, compound assignment or ``++``/``--``,
    not under ``&``, and never the bare name or a whole element
    (``g``, ``g[i]``), which could alias it (MiniC struct assignment
    aliases; a call or pointer could write through it).  A local that
    shadows the name counts as a use of it: conservative, never
    unsound.
    """
    found = getattr(program, "_constant_globals", None)
    if found is None:
        found = _find_constant_globals(program)
        program._constant_globals = found
    return found


def _row_field_base(node) -> str | None:
    """The global name `g` when `node` is ``g[i].field``, else None."""
    if type(node) is Member:
        row = node.base
        if type(row) is Index and type(row.base) is Identifier:
            return row.base.name
    return None


def _find_constant_globals(program: Program) -> frozenset[str]:
    written: set[str] = set()
    stack: list = [
        decl.init for decl in program.globals.values() if decl.init is not None
    ]
    stack.extend(
        fn.body for fn in program.functions.values() if fn.body is not None
    )
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Identifier:
            written.add(node.name)  # any use but a row-field read
            continue
        if kind is Assign or kind is IncDec or (
            kind is Unary and node.op == "&"
        ):
            target = node.target if kind is Assign else node.operand
            name = _row_field_base(target)
            if name is not None:
                written.add(name)
        name = _row_field_base(node)
        if name is not None:
            stack.append(node.base.index)  # `g` itself is only read
            continue
        for value in vars(node).values():
            if isinstance(value, Node):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, Node))
    return frozenset(program.globals) - written


def _shared_constants(state: dict, constants: frozenset[str]) -> frozenset[int]:
    """`id()`s of the constant globals in `state` that a copy may share
    by reference: an array of struct rows whose every field is
    shareable (`_shareable_value`).  Syntax guarantees nothing writes
    the array or its rows; this guarantees nothing reachable from a
    field read is mutable, so no alias of a shared object can ever be
    written."""
    env = state.get("globals")
    if not constants or type(env) is not dict:
        return frozenset()
    shared = set()
    for name in constants:
        table = env.get(name)
        if type(table) is ArrayValue and all(
            type(row) is StructValue
            and all(_shareable_value(v) for v in row.fields.values())
            for row in table.items
        ):
            shared.add(id(table))
    return frozenset(shared)


class StateBundleCopier:
    """Amortized copy-on-write copier for one frozen state bundle.

    The fixup scan runs once; every `copy()` after that duplicates
    containers with one C-level `dict()`/`list.copy()` plus targeted
    rewrites of their few mutable slots, shares all-immutable tuples
    outright, and shares each all-shareable `ArrayValue.items` list
    with the copy (the **shared-array invariant**: both arrays are
    marked `shared`, and the first write through either privatizes
    its own list, so no write is ever seen through another bundle).
    Constant globals (`constants`, names from `constant_globals`) that
    pass `_shared_constants` ride along by reference, like atoms.
    A resume therefore pays for the arrays it writes, not for every
    array the bundle holds.  Resumed runs mutate only the copies,
    never the source bundle, so the scan never goes stale.

    `fork()` is how a live bundle becomes a frozen one: it copies the
    bundle and builds the copy's recipe by translating this one
    through the copy memo, so one purity scan serves both.  `fixups`
    is that translated recipe; it holds `id()`s into `state`, so a
    copier never leaves its process.  A forked copier's `rebuilds` is
    the number of objects each of its copies builds (0 before a fork).
    """

    __slots__ = ("state", "_fixups", "rebuilds")

    def __init__(
        self,
        state: dict,
        fixups: dict[int, tuple] | None = None,
        constants: frozenset[str] = frozenset(),
    ) -> None:
        self.state = state
        if fixups is None:
            fixups = {}
            shared = _shared_constants(state, constants)
            _scan_fixups(state, fixups, set(), shared)
        self._fixups = fixups
        self.rebuilds = 0

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
        forked = StateBundleCopier(state, fixups)
        del memo[_FIXUPS_KEY]
        forked.rebuilds = sum(
            1 for key, new in memo.items() if id(new) != key
        )
        return forked


@dataclass
class BootStats(Counters):
    """Work accounting for one snapshot store."""

    resumes: int = 0  # launches served from a warm snapshot
    boots: int = 0  # full boots (probe or capture runs)
    captures: int = 0  # snapshots taken


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


def snapshot_fingerprint(
    system_name: str,
    config_text: str,
    options_fingerprint: str,
    argv: tuple[str, ...] = (),
) -> str:
    """Key of one boot record.

    Covers everything the boot prefix reads: which system boots (its
    program and OS fixtures are deterministic per name), the rendered
    config text, the launch argv (main's boot code reads it), and the
    interpreter knobs - including the engine, so tree and codegen
    launches never share a snapshot.  The request queue is
    deliberately absent: boot state is request-independent by the
    boundary's definition.
    """
    return content_key(
        "boot", system_name, config_text, *argv, options_fingerprint
    )


class SnapshotCache(ContentCache[BootRecord]):
    """`BootRecord`s keyed by `snapshot_fingerprint`: the launch store.

    Every harness launches through one.  Shared across harnesses
    (campaigns, re-runs, the fleet agreement sampler), most configs'
    boot prefix is interpreted once per process: the first run
    captures at the system's boundary hint.  A config whose first run
    kept no snapshot boots a second time to capture, and one whose
    boot never polls boots on every launch (in a full serial audit,
    1,075 configs take 1,092 boots).  Records are mutated in place by
    the snapshot engine; all transitions derive from deterministic
    runs, so concurrent writers can only race to store equivalent
    values.  `stats` counts record lookups (`record_for`: a miss when
    the lookup creates the record, a hit otherwise) and `boot_stats`
    the work the records save or cost (resumes/boots/captures).
    """

    def __init__(self) -> None:
        super().__init__()
        self._hints: dict[tuple[str, str], BoundaryHint] = {}
        self.boot_stats = BootStats()

    def record_for(self, key: str) -> BootRecord:
        """The record under `key`, created empty on first use."""
        return self.get_or_compute(key, BootRecord)

    def hint_for(
        self, system_name: str, options_fingerprint: str
    ) -> BoundaryHint:
        """The speculative boot-boundary hint shared by all configs of
        one (system, options) pair."""
        key = (system_name, options_fingerprint)
        with self._lock:
            hint = self._hints.get(key)
            if hint is None:
                hint = self._hints[key] = BoundaryHint()
            return hint


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
        # Privatize once; every later cold boot restores from this
        # bundle copy-on-write instead of re-running the inits.
        plan.globals_template = StateBundleCopier(
            bundle, constants=constant_globals(program)
        ).fork()
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
    if len(interp.frames) >= MAX_CALL_DEPTH:
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
    launches install their own queue.  One copy-on-write fork over the
    whole bundle preserves identity relations (pointers into
    environment dicts, shared file handles); the live run keeps going
    on arrays now shared with the snapshot, privatizing each one it
    writes.  A value the copier cannot copy (one `copy.deepcopy`
    refuses, such as a lock a custom builtin planted) raises out of the
    launch: no other copy could hold it either.
    """
    os_model = interp.os
    saved_requests = os_model.requests
    os_model.requests = []
    try:
        slim = dict(interp.state_bundle())
        slim.pop("global_types")  # rebuilt from the program on resume
        private = StateBundleCopier(
            slim, constants=constant_globals(interp.program)
        ).fork()
        get_registry().observe(
            "launch.restore_objects",
            private.rebuilds,
            buckets=RESTORE_OBJECT_BUCKETS,
        )
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
