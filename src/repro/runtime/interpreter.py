"""Tree-walking interpreter for MiniC programs.

Executes a linked :class:`~repro.lang.program.Program` against an
:class:`~repro.runtime.os_model.EmulatedOS`.  Semantics follow C where
it matters to SPEX-INJ's observations: integer wrap on typed stores,
NULL-deref segfaults, out-of-bounds faults, divide-by-zero faults,
truncating division, pointer-ish string arithmetic, and a step/virtual
time budget that turns infinite loops and absurd sleeps into *hangs*.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.lang import types as ct
from repro.lang.ast_nodes import (
    Assign,
    Binary,
    Block,
    BoolLiteral,
    Break,
    Call,
    CallIndirect,
    Cast,
    CharLiteral,
    Conditional,
    Continue,
    DoWhile,
    Expr,
    ExprStmt,
    FloatLiteral,
    For,
    FunctionDef,
    Identifier,
    If,
    IncDec,
    Index,
    InitList,
    IntLiteral,
    Member,
    NullLiteral,
    Return,
    SizeOf,
    Stmt,
    StringLiteral,
    Switch,
    Unary,
    VarDecl,
    While,
)
from repro.lang.program import Program
from repro.lang.source import Location
from repro.runtime.builtins import REGISTRY
from repro.runtime.faults import (
    DivisionFault,
    ExitProcess,
    HangFault,
    SegmentationFault,
    StackOverflowFault,
)
from repro.runtime.os_model import EmulatedOS
from repro.runtime.values import (
    ERRNO_SLOT,
    ArrayValue,
    ElemSlot,
    FieldSlot,
    FileHandle,
    FunctionRef,
    GlobalSlot,
    Pointer,
    Slot,
    StructValue,
    VarSlot,
    coerce,
    truthy,
    zero_value,
)


class InterpreterError(Exception):
    """A bug in the subject program itself (unknown name, bad call).

    Distinct from MachineFault: these indicate broken MiniC sources
    and should fail tests loudly rather than classify as crashes.
    """


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value):
        self.value = value
        super().__init__("return")


# Each MiniC frame costs several Python frames; 100 keeps us safely
# inside CPython's default recursion limit while still letting runaway
# recursion manifest as a SIGSEGV-style fault.
MAX_CALL_DEPTH = 100


@dataclass(frozen=True)
class InterpreterOptions:
    max_steps: int = 2_000_000
    max_virtual_seconds: float = 600.0
    # Which launch engine executes function bodies (one of `ENGINES`):
    # "codegen", the default, lowers the AST once into generated
    # Python source compiled with `compile()`/`exec`
    # (`repro.runtime.codegen`); "tree" is the original tree-walking
    # interpreter, kept as the reference semantics for the
    # differential parity suite.  The two are bit-identical by
    # contract (same verdicts, logs, steps, faults).
    engine: str = "codegen"
    # Warm-boot snapshots (`repro.runtime.snapshot`): replay a
    # config's boot prefix from a captured state copy instead of
    # re-interpreting it on every launch.  Read by the harness layer;
    # results are identical either way, only the work differs.
    warm_boot: bool = True

    #: The launch engines `engine` may name.
    ENGINES = ("tree", "codegen")

    def __post_init__(self) -> None:
        # A misspelt engine must fail loudly, not silently fall back
        # to another engine (`dataclasses.replace` re-runs this too).
        if self.engine not in self.ENGINES:
            raise ValueError(
                f"unknown launch engine {self.engine!r}; "
                f"expected one of {', '.join(self.ENGINES)}"
            )

    def fingerprint(self) -> str:
        """Stable content hash of every execution knob, computed once
        per instance (the options are frozen).

        Two option sets with the same fingerprint run a program
        identically, so the fingerprint is the options component of
        the boot-record key (`repro.runtime.snapshot`).  `asdict`
        covers every field, so new knobs automatically yield new keys.
        """
        memo = self.__dict__.get("_fingerprint")
        if memo is None:
            payload = json.dumps(asdict(self), sort_keys=True, default=repr)
            memo = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", memo)
        return memo


@dataclass(slots=True)
class Frame:
    function: str
    locals: dict = field(default_factory=dict)
    local_types: dict = field(default_factory=dict)


class Interpreter:
    """One process execution of a MiniC program."""

    __slots__ = (
        "program",
        "os",
        "options",
        "plan",
        "_invokes",
        "_max_steps",
        "globals",
        "global_types",
        "statics",
        "static_types",
        "frames",
        "fd_table",
        "_fd_counter",
        "errno",
        "steps",
        "_field_type_tables",
    )

    #: Everything that evolves during one run - what a warm-boot
    #: snapshot must capture (`repro.runtime.snapshot`).  `os` is part
    #: of the bundle so one deepcopy preserves any sharing between
    #: interpreter values and OS state.
    STATE_FIELDS = (
        "globals",
        "global_types",
        "statics",
        "static_types",
        "frames",
        "fd_table",
        "_fd_counter",
        "errno",
        "steps",
        "os",
    )

    def __init__(
        self,
        program: Program,
        os_model: EmulatedOS | None = None,
        options: InterpreterOptions | None = None,
        plan=None,
    ):
        self.program = program
        self.os = os_model if os_model is not None else EmulatedOS()
        self.options = options or InterpreterOptions()
        self._bind_plan(plan)
        self._field_type_tables: dict[str, dict] = {}
        self.globals: dict[str, object] = {}
        self.global_types: dict[str, ct.CType] = {}
        self.statics: dict[tuple[str, str], object] = {}
        self.static_types: dict[tuple[str, str], ct.CType] = {}
        self.frames: list[Frame] = []
        self.fd_table: dict[int, FileHandle] = {}
        self._fd_counter = 2
        self.errno = 0
        self.steps = 0
        self._init_streams()
        self._init_globals()

    def _bind_plan(self, plan) -> None:
        """Attach a `CodegenPlan` (or None for tree-walking).

        `_max_steps` is memoized off the (frozen) options because the
        budget check sits on the per-statement hot path of both
        engines.
        """
        self.plan = plan
        self._invokes = plan.invokes if plan is not None else {}
        self._max_steps = self.options.max_steps

    # -- snapshot support ---------------------------------------------------

    def state_bundle(self) -> dict[str, object]:
        """The mutable run state, as one bundle (not copied).

        Snapshot callers deep-copy the whole bundle in a single pass so
        identity relations between entries (a `Pointer` into the
        globals dict, a `FileHandle` shared with the fd table) survive
        the copy.
        """
        return {name: getattr(self, name) for name in self.STATE_FIELDS}

    @classmethod
    def from_state(
        cls,
        program: Program,
        state: dict[str, object],
        options: InterpreterOptions | None = None,
        plan=None,
    ) -> "Interpreter":
        """Rebuild an interpreter from a (copied) state bundle without
        re-running global initialization - the warm-boot restore path."""
        interp = cls.__new__(cls)
        interp.program = program
        interp.options = options or InterpreterOptions()
        interp._bind_plan(plan)
        interp._field_type_tables = {}
        for name in cls.STATE_FIELDS:
            setattr(interp, name, state[name])
        return interp

    # -- setup ---------------------------------------------------------

    def _init_streams(self) -> None:
        self.globals["stdout"] = FileHandle(fd=1, path="<stdout>", mode="w")
        self.globals["stderr"] = FileHandle(fd=2, path="<stderr>", mode="w")

    def _init_globals(self) -> None:
        # Pass 1: declare everything zeroed so initializers may take
        # addresses of later globals (mapping tables do this).
        for name, decl in self.program.globals.items():
            self.global_types[name] = decl.type
            self.globals[name] = self._zero_for(decl.type)
        # Pass 2: run initializers in declaration order.
        for name, decl in self.program.globals.items():
            if decl.init is not None:
                self.globals[name] = self._materialize(decl.type, decl.init)

    def _zero_for(self, typ: ct.CType) -> object:
        if isinstance(typ, ct.StructType):
            return self._new_struct(typ.name)
        if isinstance(typ, ct.ArrayType):
            length = typ.length or 0
            return ArrayValue(
                typ.element, [self._zero_for(typ.element) for _ in range(length)]
            )
        return zero_value(typ)

    def _new_struct(self, struct_name: str) -> StructValue:
        sdef = self.program.struct_def(struct_name)
        # One field-type table per struct *type*, shared by every
        # instance: `field_types` is read-only after construction, and
        # sharing it keeps warm-boot snapshot blobs small (pickle
        # stores the dict once per bundle instead of once per value).
        field_types = self._field_type_tables.get(struct_name)
        if field_types is None:
            field_types = {f.name: f.type for f in sdef.fields}
            self._field_type_tables[struct_name] = field_types
        value = StructValue(struct_name, field_types)
        for f in sdef.fields:
            if isinstance(f.type, ct.StructType):
                value.fields[f.name] = self._new_struct(f.type.name)
            elif isinstance(f.type, ct.ArrayType):
                value.fields[f.name] = self._zero_for(f.type)
        return value

    def _materialize(self, typ: ct.CType, expr: Expr) -> object:
        """Build a value of declared type from an initializer."""
        if isinstance(expr, InitList):
            if isinstance(typ, ct.ArrayType):
                items = [self._materialize(typ.element, item) for item in expr.items]
                if typ.length is not None and typ.length > len(items):
                    items += [
                        self._zero_for(typ.element)
                        for _ in range(typ.length - len(items))
                    ]
                return ArrayValue(typ.element, items)
            if isinstance(typ, ct.StructType):
                sdef = self.program.struct_def(typ.name)
                value = self._new_struct(typ.name)
                for i, item in enumerate(expr.items):
                    if i >= len(sdef.fields):
                        break
                    fdef = sdef.fields[i]
                    value.fields[fdef.name] = self._materialize(fdef.type, item)
                return value
            if expr.items:
                return self._materialize(typ, expr.items[0])
            return self._zero_for(typ)
        return coerce(typ, self.eval(expr))

    # -- resource helpers --------------------------------------------------

    def next_fd(self) -> int:
        self._fd_counter += 1
        return self._fd_counter

    def consume_time(self, seconds: float, location: Location | None = None) -> None:
        self.os.advance(seconds)
        if self.os.virtual_time_spent > self.options.max_virtual_seconds:
            raise HangFault(
                f"virtual time budget exceeded "
                f"({self.os.virtual_time_spent:.0f}s > "
                f"{self.options.max_virtual_seconds:.0f}s)"
            )

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self._max_steps:
            raise HangFault(f"step budget exceeded ({self._max_steps} steps)")

    # -- entry ---------------------------------------------------------------

    def run_main(self, argv: list[str] | None = None) -> int:
        """Run main(argc, argv); returns the exit code."""
        argv = argv if argv is not None else ["prog"]
        main = self.program.function("main")
        args: list[object] = []
        if len(main.params) >= 2:
            args = [len(argv), ArrayValue(ct.STRING, list(argv))]
        elif len(main.params) == 1:
            args = [len(argv)]
        try:
            result = self.call_function(main, args)
        except ExitProcess as exit_:
            return exit_.code
        if isinstance(result, int):
            return result
        return 0

    # -- function calls --------------------------------------------------------

    def call_function(self, fn: FunctionDef, args: list[object]) -> object:
        invoke = self._invokes.get(fn.name)
        if invoke is not None:
            # Codegen engine: the generated function owns the whole
            # invoke protocol (depth check, frame, binding, coercion).
            return invoke(self, args)
        if len(self.frames) >= MAX_CALL_DEPTH:
            raise StackOverflowFault(
                f"call depth exceeded in {fn.name}", fn.location
            )
        frame = Frame(function=fn.name)
        for i, param in enumerate(fn.params):
            value = args[i] if i < len(args) else zero_value(param.type)
            frame.locals[param.name] = coerce(param.type, value)
            frame.local_types[param.name] = param.type
        if fn.variadic:
            frame.locals["__varargs"] = list(args[len(fn.params) :])
        self.frames.append(frame)
        try:
            if fn.body is not None:
                self.exec_block(fn.body)
            result: object = zero_value(fn.return_type)
        except _ReturnSignal as ret:
            result = coerce(fn.return_type, ret.value)
        finally:
            self.frames.pop()
        return result

    def _call_builtin_or_user(self, name: str, args: list[object], loc: Location):
        if self.program.has_function(name):
            return self.call_function(self.program.function(name), args)
        builtin = REGISTRY.get(name)
        if builtin is not None:
            return builtin(self, args, loc)
        raise InterpreterError(f"{loc}: call to undefined function {name!r}")

    # -- statements ------------------------------------------------------------

    def exec_block(self, block: Block) -> None:
        for stmt in block.statements:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: Stmt) -> None:
        self._tick()
        method = self._STMT_DISPATCH.get(type(stmt))
        if method is None:
            raise InterpreterError(f"unhandled statement {type(stmt).__name__}")
        method(self, stmt)

    def _exec_expr_stmt(self, stmt: ExprStmt) -> None:
        self.eval(stmt.expr)

    def _exec_var_decl(self, stmt: VarDecl) -> None:
        frame = self.frames[-1]
        if stmt.is_static:
            key = (frame.function, stmt.name)
            if key not in self.statics:
                self.static_types[key] = stmt.type
                if stmt.init is not None:
                    self.statics[key] = self._materialize(stmt.type, stmt.init)
                else:
                    self.statics[key] = self._zero_for(stmt.type)
            frame.local_types[stmt.name] = stmt.type
            frame.locals[stmt.name] = _StaticMarker(key)
            return
        frame.local_types[stmt.name] = stmt.type
        if stmt.init is not None:
            frame.locals[stmt.name] = self._materialize(stmt.type, stmt.init)
        else:
            frame.locals[stmt.name] = self._zero_for(stmt.type)

    def _exec_block_stmt(self, stmt: Block) -> None:
        self.exec_block(stmt)

    def _exec_if(self, stmt: If) -> None:
        if truthy(self.eval(stmt.cond)):
            self.exec_stmt(stmt.then)
        elif stmt.other is not None:
            self.exec_stmt(stmt.other)

    def _exec_while(self, stmt: While) -> None:
        while True:
            self._tick()
            if not truthy(self.eval(stmt.cond)):
                return
            try:
                self.exec_stmt(stmt.body)
            except _BreakSignal:
                return
            except _ContinueSignal:
                continue

    def _exec_do_while(self, stmt: DoWhile) -> None:
        while True:
            self._tick()
            try:
                self.exec_stmt(stmt.body)
            except _BreakSignal:
                return
            except _ContinueSignal:
                pass
            if not truthy(self.eval(stmt.cond)):
                return

    def _exec_for(self, stmt: For) -> None:
        if stmt.init is not None:
            self.exec_stmt(stmt.init)
        while True:
            self._tick()
            if stmt.cond is not None and not truthy(self.eval(stmt.cond)):
                return
            try:
                self.exec_stmt(stmt.body)
            except _BreakSignal:
                return
            except _ContinueSignal:
                pass
            if stmt.step is not None:
                self.eval(stmt.step)

    def _exec_switch(self, stmt: Switch) -> None:
        subject = self.eval(stmt.subject)
        start = None
        default = None
        for i, case in enumerate(stmt.cases):
            if case.value is None:
                default = i
            elif _values_equal(subject, self.eval(case.value)):
                start = i
                break
        if start is None:
            start = default
        if start is None:
            return
        try:
            for case in stmt.cases[start:]:
                for inner in case.body:
                    self.exec_stmt(inner)
        except _BreakSignal:
            return

    def _exec_break(self, stmt: Break) -> None:
        raise _BreakSignal()

    def _exec_continue(self, stmt: Continue) -> None:
        raise _ContinueSignal()

    def _exec_return(self, stmt: Return) -> None:
        value = self.eval(stmt.value) if stmt.value is not None else None
        raise _ReturnSignal(value)

    # -- lvalues --------------------------------------------------------------

    def resolve_slot(self, expr: Expr) -> Slot:
        if isinstance(expr, Identifier):
            return self._name_slot(expr.name, expr.location)
        if isinstance(expr, Member):
            base = self.eval(expr.base)
            struct = struct_from(self, base, expr.field_name, expr.location)
            return FieldSlot(struct, expr.field_name)
        if isinstance(expr, Index):
            base = self.eval(expr.base)
            index = self.eval(expr.index)
            return index_slot(base, index, expr.location)
        if isinstance(expr, Unary) and expr.op == "*":
            target = self.eval(expr.operand)
            if target is None:
                raise SegmentationFault("NULL pointer dereference", expr.location)
            if isinstance(target, Pointer):
                return target.slot
            if isinstance(target, ArrayValue):
                return ElemSlot(target, 0)
            raise SegmentationFault(
                f"dereferencing non-pointer {target!r}", expr.location
            )
        raise InterpreterError(
            f"{expr.location}: expression is not assignable"
        )

    def _name_slot(self, name: str, location: Location) -> Slot:
        for frame in (self.frames[-1],) if self.frames else ():
            if name in frame.locals:
                value = frame.locals[name]
                if isinstance(value, _StaticMarker):
                    return VarSlot(
                        self.statics, value.key, self.static_types.get(value.key)
                    )
                return VarSlot(frame.locals, name, frame.local_types.get(name))
        if name == "errno":
            return ERRNO_SLOT
        if name in self.globals:
            return GlobalSlot(name, self.global_types.get(name))
        raise InterpreterError(f"{location}: undefined variable {name!r}")

    # -- expressions --------------------------------------------------------

    def eval(self, expr: Expr) -> object:
        method = self._EXPR_DISPATCH.get(type(expr))
        if method is None:
            raise InterpreterError(f"unhandled expression {type(expr).__name__}")
        return method(self, expr)

    def _eval_int(self, expr: IntLiteral):
        return expr.value

    def _eval_float(self, expr: FloatLiteral):
        return expr.value

    def _eval_string(self, expr: StringLiteral):
        return expr.value

    def _eval_char(self, expr: CharLiteral):
        return expr.value

    def _eval_bool(self, expr: BoolLiteral):
        return 1 if expr.value else 0

    def _eval_null(self, expr: NullLiteral):
        return None

    def _eval_identifier(self, expr: Identifier):
        name = expr.name
        if self.frames and name in self.frames[-1].locals:
            value = self.frames[-1].locals[name]
            if isinstance(value, _StaticMarker):
                return self.statics[value.key]
            return value
        if name == "errno":
            return self.errno
        if name in self.globals:
            return self.globals[name]
        if self.program.has_function(name) or name in self.program.prototypes:
            return FunctionRef(name)
        raise InterpreterError(f"{expr.location}: undefined identifier {name!r}")

    def _eval_unary(self, expr: Unary):
        if expr.op == "&":
            return Pointer(self.resolve_slot(expr.operand))
        value = self.eval(expr.operand)
        if expr.op == "*":
            return deref_value(self, value, expr.location)
        if expr.op == "!":
            return 0 if truthy(value) else 1
        if expr.op == "-":
            if isinstance(value, (int, float)):
                return -value
            raise SegmentationFault(f"negating non-number {value!r}", expr.location)
        if expr.op == "~":
            return ~_int_of(value, expr.location)
        raise InterpreterError(f"unhandled unary {expr.op}")

    def _eval_incdec(self, expr: IncDec):
        slot = self.resolve_slot(expr.operand)
        old = slot.get(self, expr.location)
        if not isinstance(old, (int, float)):
            raise SegmentationFault(
                f"++/-- on non-number {old!r}", expr.location
            )
        new = old + 1 if expr.op == "++" else old - 1
        slot.set(self, new, expr.location)
        return slot.get(self, expr.location) if expr.prefix else old

    def _eval_binary(self, expr: Binary):
        op = expr.op
        if op == "&&":
            if not truthy(self.eval(expr.left)):
                return 0
            return 1 if truthy(self.eval(expr.right)) else 0
        if op == "||":
            if truthy(self.eval(expr.left)):
                return 1
            return 1 if truthy(self.eval(expr.right)) else 0
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        return self._binop(op, left, right, expr.location)

    def _binop(self, op: str, left, right, loc: Location):
        return binop(op, left, right, loc)

    def _eval_conditional(self, expr: Conditional):
        if truthy(self.eval(expr.cond)):
            return self.eval(expr.then)
        return self.eval(expr.other)

    def _eval_assign(self, expr: Assign):
        slot = self.resolve_slot(expr.target)
        value = self.eval(expr.value)
        if expr.op != "=":
            current = slot.get(self, expr.location)
            value = self._binop(expr.op[:-1], current, value, expr.location)
        slot.set(self, value, expr.location)
        return slot.get(self, expr.location)

    def _eval_call(self, expr: Call):
        self._tick()
        args = [self.eval(arg) for arg in expr.args]
        return self._call_builtin_or_user(expr.callee, args, expr.location)

    def _eval_call_indirect(self, expr: CallIndirect):
        self._tick()
        target = self.eval(expr.func)
        if target is None:
            raise SegmentationFault("call through NULL function pointer", expr.location)
        if not isinstance(target, FunctionRef):
            raise SegmentationFault(
                f"call through non-function value {target!r}", expr.location
            )
        args = [self.eval(arg) for arg in expr.args]
        return self._call_builtin_or_user(target.name, args, expr.location)

    def _eval_member(self, expr: Member):
        base = self.eval(expr.base)
        struct = struct_from(self, base, expr.field_name, expr.location)
        return struct.get(expr.field_name, expr.location)

    def _eval_index(self, expr: Index):
        base = self.eval(expr.base)
        index = self.eval(expr.index)
        return index_value(base, index, expr.location)

    def _eval_cast(self, expr: Cast):
        return cast_value(expr.type, self.eval(expr.operand))

    def _eval_sizeof(self, expr: SizeOf):
        return sizeof_value(expr.type, self.program.structs)

    def _eval_initlist(self, expr: InitList):
        return ArrayValue(None, [self.eval(item) for item in expr.items])

    _EXPR_DISPATCH = {}
    _STMT_DISPATCH = {}


@dataclass
class _StaticMarker:
    key: tuple[str, str]


def _values_equal(left, right) -> bool:
    # NULL compares equal to 0 (C's null pointer constant).
    if left is None:
        return right is None or right == 0
    if right is None:
        return left is None or left == 0
    if isinstance(left, str) and isinstance(right, str):
        return left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left == right
    return left is right


def _compare_key(value, loc):
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    raise SegmentationFault(f"ordered comparison on {value!r}", loc)


def _number_of(value, loc):
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    raise SegmentationFault(f"arithmetic on non-number {value!r}", loc)


def _int_of(value, loc) -> int:
    if value is None:
        return 0
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return int(value)
    raise SegmentationFault(f"integer operation on {value!r}", loc)


# -- shared value semantics ---------------------------------------------------
#
# These module-level helpers are the single implementation of MiniC's
# value-level semantics, used by both the tree-walking methods above
# and the codegen engine's generated code (`repro.runtime.codegen`).
# Sharing them is what makes the two engines bit-identical by
# construction for everything below statement/expression dispatch.


def binop(op: str, left, right, loc: Location):
    """Evaluate one binary operator with C-ish semantics."""
    if op == "==":
        return 1 if _values_equal(left, right) else 0
    if op == "!=":
        return 0 if _values_equal(left, right) else 1
    if op in ("<", ">", "<=", ">="):
        lnum = _compare_key(left, loc)
        rnum = _compare_key(right, loc)
        result = {
            "<": lnum < rnum,
            ">": lnum > rnum,
            "<=": lnum <= rnum,
            ">=": lnum >= rnum,
        }[op]
        return 1 if result else 0
    # Pointer-style arithmetic on strings: s + n advances.
    if op == "+" and isinstance(left, str) and isinstance(right, int):
        return left[min(right, len(left)) :] if right >= 0 else left
    if op == "+" and isinstance(right, str) and isinstance(left, int):
        return right[min(left, len(right)) :] if left >= 0 else right
    lnum = _number_of(left, loc)
    rnum = _number_of(right, loc)
    if op == "+":
        return lnum + rnum
    if op == "-":
        return lnum - rnum
    if op == "*":
        return lnum * rnum
    if op == "/":
        if rnum == 0:
            raise DivisionFault("division by zero", loc)
        if isinstance(lnum, int) and isinstance(rnum, int):
            q = abs(lnum) // abs(rnum)
            return q if (lnum >= 0) == (rnum >= 0) else -q
        return lnum / rnum
    if op == "%":
        if rnum == 0:
            raise DivisionFault("modulo by zero", loc)
        li, ri = int(lnum), int(rnum)
        r = abs(li) % abs(ri)
        return r if li >= 0 else -r
    li, ri = _int_of(left, loc), _int_of(right, loc)
    if op == "<<":
        return li << (ri & 63)
    if op == ">>":
        return li >> (ri & 63)
    if op == "&":
        return li & ri
    if op == "|":
        return li | ri
    if op == "^":
        return li ^ ri
    raise InterpreterError(f"unhandled binary {op}")


def deref_value(rt, value: object, location: Location):
    """`*value` in rvalue position (`rt`: the running interpreter)."""
    if value is None:
        raise SegmentationFault("NULL pointer dereference", location)
    if isinstance(value, Pointer):
        return value.deref(rt, location)
    if isinstance(value, str):
        return ord(value[0]) if value else 0
    if isinstance(value, ArrayValue):
        return value.get(0, location)
    raise SegmentationFault(f"dereferencing non-pointer {value!r}", location)


def struct_from(
    rt, base: object, field_name: str, location: Location
) -> StructValue:
    """Resolve the struct a member access reads through (auto-deref;
    `rt`: the running interpreter)."""
    if base is None:
        raise SegmentationFault(
            f"NULL dereference accessing field {field_name!r}", location
        )
    if isinstance(base, Pointer):
        base = base.deref(rt, location)
        if base is None:
            raise SegmentationFault(
                f"NULL dereference accessing field {field_name!r}", location
            )
    if isinstance(base, StructValue):
        return base
    raise SegmentationFault(
        f"field access on non-struct value {base!r}", location
    )


def index_value(base, index, location: Location):
    """`base[index]` in rvalue position (strings index to char codes)."""
    if base is None:
        raise SegmentationFault("indexing NULL pointer", location)
    if isinstance(base, str):
        if not isinstance(index, int):
            raise SegmentationFault("non-integer string index", location)
        if index == len(base):
            return 0  # the terminating NUL
        if 0 <= index < len(base):
            return ord(base[index])
        raise SegmentationFault(
            f"string index {index} out of bounds", location
        )
    if isinstance(base, ArrayValue):
        if not isinstance(index, int):
            raise SegmentationFault("non-integer array index", location)
        return base.get(index, location)
    raise SegmentationFault(f"indexing non-array {base!r}", location)


def index_slot(base, index, location: Location) -> Slot:
    """`base[index]` in lvalue position."""
    if base is None:
        raise SegmentationFault("indexing NULL pointer", location)
    if isinstance(base, ArrayValue):
        if not isinstance(index, int):
            raise SegmentationFault(f"non-integer index {index!r}", location)
        return ElemSlot(base, index)
    if isinstance(base, str):
        raise SegmentationFault("write into string literal", location)
    raise SegmentationFault(f"indexing non-array value {base!r}", location)


def cast_value(typ: ct.CType, value: object):
    """C cast semantics: integer wrap, float widening, bool collapse."""
    if isinstance(typ, ct.IntType) and isinstance(value, (int, float, bool)):
        return typ.wrap(int(value))
    if isinstance(typ, ct.FloatType) and isinstance(value, (int, float)):
        return float(value)
    if isinstance(typ, ct.BoolType):
        return 1 if truthy(value) else 0
    return value


def sizeof_value(typ: ct.CType, structs: dict) -> int:
    """sizeof(type); struct sizes read the program's struct table."""
    if isinstance(typ, ct.IntType):
        return typ.bits // 8
    if isinstance(typ, ct.FloatType):
        return typ.bits // 8
    if isinstance(typ, ct.PointerType):
        return 8
    if isinstance(typ, ct.BoolType):
        return 1
    if isinstance(typ, ct.StructType):
        sdef = structs.get(typ.name)
        return 8 * len(sdef.fields) if sdef else 8
    return 8


Interpreter._EXPR_DISPATCH = {
    IntLiteral: Interpreter._eval_int,
    FloatLiteral: Interpreter._eval_float,
    StringLiteral: Interpreter._eval_string,
    CharLiteral: Interpreter._eval_char,
    BoolLiteral: Interpreter._eval_bool,
    NullLiteral: Interpreter._eval_null,
    Identifier: Interpreter._eval_identifier,
    Unary: Interpreter._eval_unary,
    IncDec: Interpreter._eval_incdec,
    Binary: Interpreter._eval_binary,
    Conditional: Interpreter._eval_conditional,
    Assign: Interpreter._eval_assign,
    Call: Interpreter._eval_call,
    CallIndirect: Interpreter._eval_call_indirect,
    Member: Interpreter._eval_member,
    Index: Interpreter._eval_index,
    Cast: Interpreter._eval_cast,
    SizeOf: Interpreter._eval_sizeof,
    InitList: Interpreter._eval_initlist,
}

Interpreter._STMT_DISPATCH = {
    ExprStmt: Interpreter._exec_expr_stmt,
    VarDecl: Interpreter._exec_var_decl,
    Block: Interpreter._exec_block_stmt,
    If: Interpreter._exec_if,
    While: Interpreter._exec_while,
    DoWhile: Interpreter._exec_do_while,
    For: Interpreter._exec_for,
    Switch: Interpreter._exec_switch,
    Break: Interpreter._exec_break,
    Continue: Interpreter._exec_continue,
    Return: Interpreter._exec_return,
}
