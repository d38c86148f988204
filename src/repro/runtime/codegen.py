"""Source-codegen launch engine - the one fast launch engine.

The tree-walking interpreter re-dispatches on ``type(node)`` for every
statement and expression of every launch.  This module lowers each
linked :class:`~repro.lang.program.Program` once into real **Python
source text** - one generated Python function per MiniC function, plus
one function per top-level statement of `main` (the snapshot engine's
stepwise runners) - compiles it once with `compile()`/`exec`, and
memoizes the resulting plan on the `Program` instance.  Inside a
generated function an entire MiniC statement is straight-line Python:
the step-budget tick, the int fast paths and the local-variable fast
paths are open-coded, so only calls, builtins and the genuinely
polymorphic slow paths leave the frame.

Lowering also emits what it already knows instead of re-deriving it
per step:

- *Builtins are bound.*  A call to a registered builtin is a direct
  call of the implementation, interned as a `_K<n>` constant; a callee
  that is neither defined nor registered goes to
  `Interpreter._call_builtin_or_user`, which raises the tree-walker's
  error when (and only when) the call runs.
- *Name scope is static.*  A name that is never a parameter or a
  `VarDecl` of the function (for main's step runners: of main), and is
  not `errno` or `__varargs`, can never be in the frame's locals, so
  its loads go straight to the globals.
- *Typed fast paths fall back to the shared helpers.*  Array
  indexing, struct member reads and `==`/`!=` against an int literal
  test the exact runtime types they handle inline; stores through a
  statically known declared type (parameters, initializers, returns, a
  local declared exactly once and not static) skip `coerce` where it
  cannot change the value.  Anything else takes the generic helper.

A `Program` is treated as immutable once lowered - ``add_source``
after ``codegen_plan_for`` is outside the contract (call bindings
would go stale).  The builtin `REGISTRY` is under the same contract:
generated code holds the implementations it read while lowering, so
registering or replacing a builtin afterwards does not reach plans
already built.

Parity contract: identical to the tree-walking reference - same
results, logs, responses, `steps` counts and step-sensitive faults,
enforced by `tests/runtime/test_engine_parity.py` and the generated
programs of `tests/runtime/test_engine_fuzz.py`.  Where semantics are
subtle (evaluation order, re-reads after compound assignment, signal
propagation through loops and switches) the generated code mirrors
the tree-walker's `_exec_*`/`_eval_*` methods; shared value-level
helpers (`binop`, `coerce`, `_values_equal`, ...) are the very same
module functions, reached through the generated module's namespace.

Generated source is deterministic: the same program text always
produces the same module text (constants are referenced by interned
`_K<n>` names handed to `exec` via the namespace, numbered in
first-encounter order).  `CodegenPlan.source` keeps the text for the
determinism tests and for human inspection.

This is the only module in the tree allowed to call `exec` (the
`tools/lint.py` exec/eval detector pins that allowlist).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields as dataclass_fields

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
    StringLiteral,
    Switch,
    Unary,
    VarDecl,
    While,
)
from repro.lang import types as ct
from repro.lang.program import Program
from repro.obs.metrics import get_registry
from repro.runtime.builtins import REGISTRY
from repro.runtime.faults import (
    HangFault,
    SegmentationFault,
    StackOverflowFault,
)
from repro.runtime.interpreter import (
    MAX_CALL_DEPTH,
    Frame,
    InterpreterError,
    _BreakSignal,
    _ContinueSignal,
    _int_of,
    _ReturnSignal,
    _StaticMarker,
    _values_equal,
    binop,
    cast_value,
    deref_value,
    index_slot,
    index_value,
    sizeof_value,
    struct_from,
)
from repro.runtime.values import (
    ArrayValue,
    ElemSlot,
    FieldSlot,
    FunctionRef,
    Pointer,
    StructValue,
    coerce,
    truthy,
    zero_value,
)

_SOURCE_NAME = "<minic-codegen>"

# Unique "absent" sentinel for single-probe dict lookups (a MiniC
# variable can legitimately hold any Python value, including None).
_MISSING = object()

# Names a frame's locals can hold without any declaration of them:
# `__varargs` (bound by a variadic prologue) and `errno` (whose
# fallback is not a global).
_UNDECLARED_LOCALS = ("errno", "__varargs")


@dataclass
class CodegenPlan:
    """One program's generated-source form, shared by all launches.

    `source` is the full generated module text; `invokes` maps
    function name -> generated ``_fn_<name>(rt, args)``, which
    `Interpreter.call_function` hands every call of a defined
    function; `main_steps` holds main's *top-level* statement runners
    individually, so the warm-boot snapshot engine
    (`repro.runtime.snapshot`) can execute and checkpoint between
    them.

    `globals_pure` is true when no global initializer contains a call:
    then the post-global-init interpreter state is a pure function of
    the program (no OS reads, no ticks), and the snapshot engine fills
    `globals_template` with a privatized, purity-scanned state bundle
    (`snapshot.StateBundleCopier`) so later launches restore
    copy-on-write instead of re-running `_init_globals`.
    """

    program: Program
    source: str
    invokes: dict
    main_steps: tuple
    globals_pure: bool = False
    globals_template: object = None


_PLANS_LOCK = threading.Lock()


def codegen_plan_for(program: Program) -> CodegenPlan:
    """The memoized codegen plan of a program (generates + compiles on
    first use; stored on the `Program` instance, so every launch of a
    registered system shares one codegen pass)."""
    plan = getattr(program, "_codegen_plan", None)
    if plan is None:
        with _PLANS_LOCK:
            plan = getattr(program, "_codegen_plan", None)
            if plan is None:
                plan = compile_codegen(program)
                program._codegen_plan = plan
    return plan


def compile_codegen(program: Program) -> CodegenPlan:
    """Generate, `compile()` and `exec` a program's Python module."""
    source, consts, step_names = _emit_module(program)
    namespace = dict(_NAMESPACE)
    namespace.update(consts)
    code = compile(source, _SOURCE_NAME, "exec")
    exec(code, namespace)  # the one sanctioned exec (see tools/lint.py)
    invokes = {
        name: namespace[f"_fn_{name}"]
        for name, fn in program.functions.items()
        if fn.body is not None
    }
    main_steps = tuple(namespace[name] for name in step_names)
    registry = get_registry()
    registry.inc("launch.codegen_compiles")
    registry.inc("launch.codegen_functions", len(invokes))
    registry.inc("launch.codegen_source_bytes", len(source))
    return CodegenPlan(
        program=program,
        source=source,
        invokes=invokes,
        main_steps=main_steps,
        globals_pure=_globals_are_pure(program),
    )


def _globals_are_pure(program: Program) -> bool:
    """No global initializer contains a (direct or indirect) call -
    the precondition for sharing one post-global-init state template
    across launches."""
    return not any(
        decl.init is not None and _contains_call(decl.init)
        for decl in program.globals.values()
    )


def _contains_call(expr: Expr) -> bool:
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (Call, CallIndirect)):
            return True
        if not isinstance(node, Expr):
            continue
        for field_info in dataclass_fields(node):
            value = getattr(node, field_info.name)
            if isinstance(value, Expr):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, Expr))
    return False


# -- runtime helpers reached from generated code ------------------------------
#
# Each mirrors one slow path of the tree-walker verbatim; the generated
# fast paths in front of them are open-coded.


def _budget(rt):
    raise HangFault(f"step budget exceeded ({rt._max_steps} steps)")


def _incdec_fallback(rt, name, operand_loc, loc, delta, prefix):
    """++/-- on a name that is not a local: errno, a global, or an
    undefined-variable error - the tree-walker's slot path verbatim."""
    slot = rt._name_slot(name, operand_loc)
    old = slot.get(rt, loc)
    if not isinstance(old, (int, float)):
        raise SegmentationFault(f"++/-- on non-number {old!r}", loc)
    slot.set(rt, old + delta, loc)
    return slot.get(rt, loc) if prefix else old


def _name_fb(rt, value, name, loc, is_function):
    """Identifier-load fallback: static marker, errno, global,
    function ref, or undefined (`_eval_identifier`'s tail)."""
    if value is not _MISSING:  # a _StaticMarker probed from the locals
        return rt.statics[value.key]
    if name == "errno":
        return rt.errno
    value = rt.globals.get(name, _MISSING)
    if value is not _MISSING:
        return value
    if is_function:
        return FunctionRef(name)
    raise InterpreterError(f"{loc}: undefined identifier {name!r}")


def _name_env_slot(rt, current, name, target_loc):
    """Assignment-target resolution outside the plain-local fast path:
    (env, key, declared type) for a static or global, None for errno.
    Raises for an undefined name *before* the right-hand side runs,
    exactly like the tree-walker's `resolve_slot`."""
    if current is not _MISSING:  # a _StaticMarker
        key = current.key
        return (rt.statics, key, rt.static_types.get(key))
    if name == "errno":
        return None
    global_env = rt.globals
    if name in global_env:
        return (global_env, name, rt.global_types.get(name))
    raise InterpreterError(f"{target_loc}: undefined variable {name!r}")


def _finish_assign(rt, slot3, rhs, compound, loc):
    """Complete a name assignment resolved by `_name_env_slot`
    (compound re-reads the slot *after* the right-hand side ran)."""
    if slot3 is None:  # errno
        if compound is not None:
            rhs = binop(compound, rt.errno, rhs, loc)
        rt.errno = int(rhs) if isinstance(rhs, (int, float)) else 0
        return rt.errno
    env, key, typ = slot3
    if compound is not None:
        rhs = binop(compound, env[key], rhs, loc)
    env[key] = coerce(typ, rhs)
    return env[key]


def _incdec_slow(rt, current, name, operand_loc, loc, delta, prefix):
    """++/-- on a static marker or a non-local name (the static
    branch of `_name_slot` plus `_incdec_fallback`)."""
    if current is _MISSING:
        return _incdec_fallback(rt, name, operand_loc, loc, delta, prefix)
    key = current.key
    env = rt.statics
    typ = rt.static_types.get(key)
    current = env[key]
    if type(current) is int:
        if typ is None:
            env[key] = new = current + delta
        elif type(typ) is ct.IntType:
            env[key] = new = typ.wrap(current + delta)
        else:
            env[key] = new = coerce(typ, current + delta)
        return new if prefix else current
    if not isinstance(current, (int, float)):
        raise SegmentationFault(f"++/-- on non-number {current!r}", loc)
    env[key] = coerce(typ, current + delta)
    return env[key] if prefix else current


def _deref_slot(target, loc):
    """`slot()`'s dereference arm: `*expr` as an assignment target."""
    if target is None:
        raise SegmentationFault("NULL pointer dereference", loc)
    if isinstance(target, Pointer):
        return target.slot
    if isinstance(target, ArrayValue):
        return ElemSlot(target, 0)
    raise SegmentationFault(f"dereferencing non-pointer {target!r}", loc)


def _not_assignable(loc):
    raise InterpreterError(f"{loc}: expression is not assignable")


def _neg(value, loc):
    if isinstance(value, (int, float)):
        return -value
    raise SegmentationFault(f"negating non-number {value!r}", loc)


def _indirect_target(target, loc):
    """CallIndirect's target checks, before argument evaluation."""
    if target is None:
        raise SegmentationFault("call through NULL function pointer", loc)
    if not isinstance(target, FunctionRef):
        raise SegmentationFault(
            f"call through non-function value {target!r}", loc
        )
    return target.name


def _bind_args(local_env, local_types, params, args):
    """Generic parameter fill (arity mismatch path of the invoke
    protocol): missing arguments become the parameter type's zero."""
    nargs = len(args)
    for i, (pname, ptype) in enumerate(params):
        value = args[i] if i < nargs else zero_value(ptype)
        local_env[pname] = coerce(ptype, value)
        local_types[pname] = ptype


def _unhandled_stmt(kind):
    raise InterpreterError(f"unhandled statement {kind}")


def _unhandled_expr(kind):
    raise InterpreterError(f"unhandled expression {kind}")


def _unhandled_unary(op):
    raise InterpreterError(f"unhandled unary {op}")


#: Names every generated module can see.  Value-level semantics stay
#: shared with the other engines - these are the interpreter module's
#: own functions, not re-implementations.
_NAMESPACE = {
    "_M": _MISSING,
    "_SM": _StaticMarker,
    "Frame": Frame,
    "FunctionRef": FunctionRef,
    "Pointer": Pointer,
    "ArrayValue": ArrayValue,
    "StructValue": StructValue,
    "IntType": ct.IntType,
    "FieldSlot": FieldSlot,
    "coerce": coerce,
    "truthy": truthy,
    "zero_value": zero_value,
    "binop": binop,
    "deref_value": deref_value,
    "index_value": index_value,
    "index_slot": index_slot,
    "cast_value": cast_value,
    "struct_from": struct_from,
    "_values_equal": _values_equal,
    "_int_of": _int_of,
    "StackOverflowFault": StackOverflowFault,
    "SegmentationFault": SegmentationFault,
    "_BreakSignal": _BreakSignal,
    "_ContinueSignal": _ContinueSignal,
    "_ReturnSignal": _ReturnSignal,
    "_budget": _budget,
    "_name_fb": _name_fb,
    "_name_env_slot": _name_env_slot,
    "_finish_assign": _finish_assign,
    "_incdec_slow": _incdec_slow,
    "_deref_slot": _deref_slot,
    "_not_assignable": _not_assignable,
    "_neg": _neg,
    "_indirect_target": _indirect_target,
    "_bind_args": _bind_args,
    "_unhandled_stmt": _unhandled_stmt,
    "_unhandled_expr": _unhandled_expr,
    "_unhandled_unary": _unhandled_unary,
}


# -- source emission ----------------------------------------------------------


def _emit_module(program: Program) -> tuple[str, dict, list[str]]:
    """Generate the whole module: one `_fn_<name>` per defined
    function, plus `_m<i>` per top-level statement of main (the
    snapshot engine's stepwise runners).  Returns (source text,
    interned constant pool, step function names)."""
    emitter = _ModuleEmitter(program)
    out: list[str] = [
        "# generated by repro.runtime.codegen - do not edit",
    ]
    for name, fn in program.functions.items():
        if fn.body is None:
            continue
        out.append("")
        out.extend(emitter.emit_invoke(fn))
    step_names: list[str] = []
    if program.has_function("main"):
        main = program.function("main")
        if main.body is not None:
            for index, stmt in enumerate(main.body.statements):
                name = f"_m{index}"
                out.append("")
                out.extend(emitter.emit_step(name, stmt))
                step_names.append(name)
    return "\n".join(out) + "\n", emitter.consts, step_names


def _is_int_literal(node) -> bool:
    return isinstance(node, (IntLiteral, CharLiteral)) and type(node.value) is int


class _ModuleEmitter:
    """Shared per-program emission state: the interned constant pool
    (Locations, CTypes, AST nodes, static keys/markers, zero values)
    referenced from generated code as `_K<n>`."""

    def __init__(self, program: Program):
        self.program = program
        self.consts: dict[str, object] = {}
        self._const_ids: dict[int, str] = {}
        self._scopes: dict[str, dict] = {}

    def scope(self, fn) -> dict:
        """name -> declarations (`Param`/`VarDecl`) of one function,
        memoized so main's step runners share one scan."""
        decls = self._scopes.get(fn.name)
        if decls is None:
            decls = {}
            for param in fn.params:
                decls.setdefault(param.name, []).append(param)
            stack = [fn.body] if fn.body is not None else []
            while stack:
                node = stack.pop()
                if isinstance(node, VarDecl):
                    decls.setdefault(node.name, []).append(node)
                elif isinstance(node, Block):
                    stack.extend(node.statements)
                elif isinstance(node, If):
                    stack.append(node.then)
                    if node.other is not None:
                        stack.append(node.other)
                elif isinstance(node, (While, DoWhile)):
                    stack.append(node.body)
                elif isinstance(node, For):
                    stack.append(node.body)
                    if node.init is not None:
                        stack.append(node.init)
                elif isinstance(node, Switch):
                    for case in node.cases:
                        stack.extend(case.body)
            self._scopes[fn.name] = decls
        return decls

    def const(self, obj) -> str:
        name = self._const_ids.get(id(obj))
        if name is None:
            name = f"_K{len(self.consts)}"
            self._const_ids[id(obj)] = name
            self.consts[name] = obj
        return name

    def emit_invoke(self, fn) -> list[str]:
        return _FunctionEmitter(self, fn, mode="invoke").emit()

    def emit_step(self, name: str, stmt) -> list[str]:
        return _FunctionEmitter(
            self, self.program.function("main"), mode="step"
        ).emit_step(name, stmt)


class _FunctionEmitter:
    """Lowers one MiniC function (or one top-level statement of main)
    into Python source lines.

    `value()` returns a Python expression string plus a purity flag;
    an impure expression may be evaluated at most once, immediately
    after the lines emitted for it.  Parents that need an operand
    early (evaluation order) or more than once (fast-path type tests)
    hoist it into a `_t<n>` temporary via `atom()`.
    """

    def __init__(self, module: _ModuleEmitter, fn, mode: str):
        self.module = module
        self.program = module.program
        self.fn = fn
        self.mode = mode  # "invoke" | "step"
        self.out: list[str] = []
        self.ctx: list[str] = []  # "while" | "postloop" | "switch"
        self._temps = 0
        self.decls = module.scope(fn)

    # -- infrastructure ------------------------------------------------------

    def const(self, obj) -> str:
        return self.module.const(obj)

    def w(self, ind: int, text: str) -> None:
        self.out.append("    " * ind + text)

    def temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    def hoist(self, ind: int, expr: str) -> str:
        name = self.temp()
        self.w(ind, f"{name} = {expr}")
        return name

    def tick(self, ind: int) -> None:
        self.w(ind, "rt.steps = _s = rt.steps + 1")
        self.w(ind, "if _s > rt._max_steps: _budget(rt)")

    # -- what lowering knows -------------------------------------------------

    def maybe_local(self, name: str) -> bool:
        """Whether `name` can ever be in this frame's locals."""
        return name in self.decls or name in _UNDECLARED_LOCALS

    def local_type(self, name: str):
        """The declared type of a local declared exactly once and not
        static - then a present local is never a static marker and its
        `T` entry is always this type; None for any other name."""
        decls = self.decls.get(name)
        if (
            decls is None
            or len(decls) != 1
            or getattr(decls[0], "is_static", False)
            or name in _UNDECLARED_LOCALS
        ):
            return None
        return decls[0].type

    def coerced(self, typ, expr: str, node=None) -> str:
        """`coerce(typ, expr)` at a type known while lowering: an
        in-range int (`node`, when given, may prove it one) is stored
        unchanged, and a type `coerce` passes through (pointer, struct,
        array, ...) needs no call."""
        if isinstance(typ, ct.IntType):
            if _is_int_literal(node) and typ.min_value <= node.value <= typ.max_value:
                return expr
            value = self.temp()
            return (
                f"({value} if type({value} := {expr}) is int"
                f" and {typ.min_value} <= {value} <= {typ.max_value}"
                f" else coerce({self.const(typ)}, {value}))"
            )
        if isinstance(typ, (ct.BoolType, ct.FloatType)):
            return f"coerce({self.const(typ)}, {expr})"
        return expr

    def _buffered(self, fn) -> tuple[list[str], object]:
        """Run `fn` with emission redirected to a buffer."""
        saved = self.out
        self.out = []
        try:
            result = fn()
            return self.out, result
        finally:
            self.out = saved

    # -- function shells -----------------------------------------------------

    def emit(self) -> list[str]:
        fn = self.fn
        fname = fn.name
        rtype = fn.return_type
        params = tuple((p.name, p.type) for p in fn.params)
        self.w(0, f"def _fn_{fname}(rt, args):")
        self.w(1, "frames = rt.frames")
        self.w(1, f"if len(frames) >= {MAX_CALL_DEPTH}:")
        self.w(
            2,
            f"raise StackOverflowFault({f'call depth exceeded in {fname}'!r},"
            f" {self.const(fn.location)})",
        )
        self.w(1, f"frame = Frame(function={fname!r})")
        self.w(1, "L = frame.locals")
        self.w(1, "T = frame.local_types")
        if params:
            self.w(1, f"if len(args) == {len(params)}:")
            for i, (pname, ptype) in enumerate(params):
                kt = self.const(ptype)
                self.w(2, f"L[{pname!r}] = {self.coerced(ptype, f'args[{i}]')}")
                self.w(2, f"T[{pname!r}] = {kt}")
            self.w(1, "else:")
            self.w(2, f"_bind_args(L, T, {self.const(params)}, args)")
        if fn.variadic:
            self.w(1, f"L['__varargs'] = list(args[{len(params)}:])")
        self.w(1, "frames.append(frame)")
        self.w(1, "try:")
        self.w(2, "try:")
        for stmt in fn.body.statements:
            self.stmt(stmt, 3)
        self.w(3, self._zero_return(rtype))
        self.w(2, "except _ReturnSignal as _ret:")
        self.w(3, f"return coerce({self.const(rtype)}, _ret.value)")
        self.w(1, "finally:")
        self.w(2, "frames.pop()")
        return self.out

    def _zero_return(self, rtype) -> str:
        # Array zeros are fresh mutable objects per return; every other
        # return type's zero is an immutable interned constant.
        if isinstance(rtype, ct.ArrayType):
            return f"return zero_value({self.const(rtype)})"
        return f"return {self.const(zero_value(rtype))}"

    def emit_step(self, name: str, stmt) -> list[str]:
        self.w(0, f"def {name}(rt):")
        self.w(1, "frame = rt.frames[-1]")
        self.w(1, "L = frame.locals")
        self.w(1, "T = frame.local_types")
        self.stmt(stmt, 1)
        return self.out

    # -- statements ----------------------------------------------------------

    def stmt(self, node, ind: int) -> None:
        method = self._STMT.get(type(node))
        if method is None:
            # Unknown nodes fail when (and only when) executed, with
            # the tree-walker's message.
            self.w(ind, f"_unhandled_stmt({type(node).__name__!r})")
            return
        method(self, node, ind)

    def _s_expr_stmt(self, node: ExprStmt, ind: int) -> None:
        self.tick(ind)
        expr, pure = self.value(node.expr, ind)
        if not pure:
            self.w(ind, expr)

    def _s_var_decl(self, node: VarDecl, ind: int) -> None:
        self.tick(ind)
        name, typ, init = node.name, node.type, node.init
        kt = self.const(typ)
        if node.is_static:
            key = (self.fn.name if self.mode == "invoke" else "main", name)
            kk = self.const(key)
            self.w(ind, f"if {kk} not in rt.statics:")
            self.w(ind + 1, f"rt.static_types[{kk}] = {kt}")
            value = self._decl_value(typ, kt, init, ind + 1)
            self.w(ind + 1, f"rt.statics[{kk}] = {value}")
            self.w(ind, f"T[{name!r}] = {kt}")
            self.w(ind, f"L[{name!r}] = {self.const(_StaticMarker(key))}")
            return
        self.w(ind, f"T[{name!r}] = {kt}")
        value = self._decl_value(typ, kt, init, ind)
        self.w(ind, f"L[{name!r}] = {value}")

    def _decl_value(self, typ, kt: str, init, ind: int) -> str:
        if init is None:
            if isinstance(typ, (ct.StructType, ct.ArrayType)):
                return f"rt._zero_for({kt})"
            # Any other zero is an immutable scalar (0, 0.0 or None).
            return repr(zero_value(typ))
        if isinstance(init, InitList):
            # Brace initializers reuse the interpreter's materializer,
            # exactly like the tree-walker.
            return f"rt._materialize({kt}, {self.const(init)})"
        expr, _pure = self.value(init, ind)
        return self.coerced(typ, expr, init)

    def _s_block(self, node: Block, ind: int) -> None:
        self.tick(ind)
        for stmt in node.statements:
            self.stmt(stmt, ind)

    def _s_if(self, node: If, ind: int) -> None:
        self.tick(ind)
        cond = self.atom(node.cond, ind)
        self.w(ind, f"if ({cond} != 0) if type({cond}) is int else truthy({cond}):")
        self.stmt(node.then, ind + 1)
        if node.other is not None:
            self.w(ind, "else:")
            self.stmt(node.other, ind + 1)

    def _s_while(self, node: While, ind: int) -> None:
        self.tick(ind)
        self.w(ind, "while True:")
        self.tick(ind + 1)
        cond = self.atom(node.cond, ind + 1)
        self.w(
            ind + 1,
            f"if not (({cond} != 0) if type({cond}) is int else truthy({cond})):",
        )
        self.w(ind + 2, "break")
        self._loop_body(node.body, ind + 1, "while")

    def _s_do_while(self, node: DoWhile, ind: int) -> None:
        self.tick(ind)
        self.w(ind, "while True:")
        self.tick(ind + 1)
        self._loop_body(node.body, ind + 1, "postloop")
        cond = self.atom(node.cond, ind + 1)
        self.w(
            ind + 1,
            f"if not (({cond} != 0) if type({cond}) is int else truthy({cond})):",
        )
        self.w(ind + 2, "break")

    def _s_for(self, node: For, ind: int) -> None:
        self.tick(ind)
        if node.init is not None:
            self.stmt(node.init, ind)
        self.w(ind, "while True:")
        self.tick(ind + 1)
        if node.cond is not None:
            cond = self.atom(node.cond, ind + 1)
            self.w(
                ind + 1,
                f"if not (({cond} != 0) if type({cond}) is int"
                f" else truthy({cond})):",
            )
            self.w(ind + 2, "break")
        self._loop_body(node.body, ind + 1, "postloop")
        if node.step is not None:
            expr, pure = self.value(node.step, ind + 1)
            if not pure:
                self.w(ind + 1, expr)

    def _loop_body(self, body, ind: int, ctx: str) -> None:
        """One loop body, always signal-fenced: `_BreakSignal` and
        `_ContinueSignal` can arrive through a *called* function (a
        stray `break` outside any loop propagates to the caller in
        every engine), so syntactic absence of break/continue in this
        body is not enough to drop the try."""
        self.w(ind, "try:")
        self.ctx.append(ctx)
        try:
            self.stmt(body, ind + 1)
        finally:
            self.ctx.pop()
        self.w(ind, "except _BreakSignal:")
        self.w(ind + 1, "break")
        self.w(ind, "except _ContinueSignal:")
        if ctx == "while":
            self.w(ind + 1, "continue")
        else:  # for / do-while: fall through to the advance / cond
            self.w(ind + 1, "pass")

    def _s_switch(self, node: Switch, ind: int) -> None:
        self.tick(ind)
        subject = self.atom(node.subject, ind)
        arms = node.cases
        default = -1
        for i, case in enumerate(arms):
            if case.value is None:
                default = i
        sel = self.temp()
        case_arms = [
            (i, case) for i, case in enumerate(arms) if case.value is not None
        ]
        if case_arms:
            # Sequential value probing, exactly like the tree-walker's
            # scan: each case value is evaluated in order until one
            # matches; default arms are compile-time facts.
            self.w(ind, "while True:")
            for i, case in case_arms:
                expr, _pure = self.value(case.value, ind + 1)
                self.w(ind + 1, f"if _values_equal({subject}, {expr}):")
                self.w(ind + 2, f"{sel} = {i}")
                self.w(ind + 2, "break")
            self.w(ind + 1, f"{sel} = {default}")
            self.w(ind + 1, "break")
        else:
            self.w(ind, f"{sel} = {default}")
        self.w(ind, f"if {sel} >= 0:")
        self.w(ind + 1, "try:")
        self.w(ind + 2, "while True:")
        self.ctx.append("switch")
        try:
            for i, case in enumerate(arms):
                self.w(ind + 3, f"if {sel} <= {i}:")
                if case.body:
                    for stmt in case.body:
                        self.stmt(stmt, ind + 4)
                else:
                    self.w(ind + 4, "pass")
        finally:
            self.ctx.pop()
        self.w(ind + 3, "break")
        self.w(ind + 1, "except _BreakSignal:")
        self.w(ind + 2, "pass")

    def _s_break(self, node: Break, ind: int) -> None:
        self.tick(ind)
        if self.ctx:
            self.w(ind, "break")
        else:
            self.w(ind, "raise _BreakSignal()")

    def _s_continue(self, node: Continue, ind: int) -> None:
        self.tick(ind)
        if not self.ctx or self.ctx[-1] != "while":
            # Inside a for/do-while body the advance/condition code
            # sits *after* the body: a Python `continue` would skip
            # it, and inside a switch it would re-run the dispatch
            # loop.  The signal unwinds to the right handler.
            self.w(ind, "raise _ContinueSignal()")
        else:
            self.w(ind, "continue")

    def _s_return(self, node: Return, ind: int) -> None:
        self.tick(ind)
        if node.value is None:
            expr = "None"
        else:
            expr, _pure = self.value(node.value, ind)
        if self.mode == "invoke":
            # The invoke protocol coerces through the return type; a
            # bare `return;` yields coerce(rtype, None) - deliberately
            # not the zero constant (coerce(int, None) is None).
            rtype = self.fn.return_type
            if node.value is None:
                self.w(ind, f"return coerce({self.const(rtype)}, None)")
            else:
                self.w(ind, f"return {self.coerced(rtype, expr, node.value)}")
        else:
            self.w(ind, f"raise _ReturnSignal({expr})")

    # -- expressions ---------------------------------------------------------

    def value(self, node, ind: int) -> tuple[str, bool]:
        method = self._EXPR.get(type(node))
        if method is None:
            return f"_unhandled_expr({type(node).__name__!r})", False
        return method(self, node, ind)

    def atom(self, node, ind: int) -> str:
        expr, pure = self.value(node, ind)
        if pure:
            return expr
        return self.hoist(ind, expr)

    def seq(self, nodes, ind: int) -> list[str]:
        """Left-to-right evaluation of sibling operands: any operand
        followed by one that needs statements is hoisted so its side
        effects land first."""
        buffered = []
        for node in nodes:
            lines, result = self._buffered(lambda n=node: self.value(n, ind))
            buffered.append((lines, result))
        exprs = []
        for i, (lines, (expr, pure)) in enumerate(buffered):
            self.out.extend(lines)
            if not pure and any(later_lines for later_lines, _ in buffered[i + 1:]):
                expr = self.hoist(ind, expr)
            exprs.append(expr)
        return exprs

    def _e_literal(self, node, ind: int) -> tuple[str, bool]:
        text = repr(node.value)
        if text.startswith("-"):
            text = f"({text})"
        return text, True

    def _e_bool(self, node: BoolLiteral, ind: int) -> tuple[str, bool]:
        return ("1" if node.value else "0"), True

    def _e_null(self, node: NullLiteral, ind: int) -> tuple[str, bool]:
        return "None", True

    def _e_identifier(self, node: Identifier, ind: int) -> tuple[str, bool]:
        name = node.name
        is_function = (
            self.program.has_function(name) or name in self.program.prototypes
        )
        probe = self.temp()
        kloc = self.const(node.location)
        if not self.maybe_local(name):
            return (
                f"({probe} if ({probe} := rt.globals.get({name!r}, _M))"
                f" is not _M else _name_fb(rt, _M, {name!r}, {kloc},"
                f" {is_function}))",
                False,
            )
        if self.local_type(name) is not None:
            return (
                f"({probe} if ({probe} := L.get({name!r}, _M)) is not _M"
                f" else _name_fb(rt, _M, {name!r}, {kloc}, {is_function}))",
                False,
            )
        return (
            f"({probe} if type({probe} := L.get({name!r}, _M)) is not _SM"
            f" and {probe} is not _M"
            f" else _name_fb(rt, {probe}, {name!r}, {kloc}, {is_function}))",
            False,
        )

    def _e_unary(self, node: Unary, ind: int) -> tuple[str, bool]:
        op = node.op
        kloc = self.const(node.location)
        if op == "&":
            slot_expr = self.slot(node.operand, ind)
            return f"Pointer({slot_expr})", False
        if op == "*":
            expr, _pure = self.value(node.operand, ind)
            return f"deref_value(rt, {expr}, {kloc})", False
        if op == "!":
            expr, _pure = self.value(node.operand, ind)
            return f"(0 if truthy({expr}) else 1)", False
        if op == "-":
            expr, _pure = self.value(node.operand, ind)
            return f"_neg({expr}, {kloc})", False
        if op == "~":
            expr, _pure = self.value(node.operand, ind)
            return f"~_int_of({expr}, {kloc})", False
        # Unknown operator: raise on evaluation, operand unevaluated.
        return f"_unhandled_unary({op!r})", False

    def _e_incdec(self, node: IncDec, ind: int) -> tuple[str, bool]:
        loc = node.location
        kloc = self.const(loc)
        delta = 1 if node.op == "++" else -1
        prefix = node.prefix
        step = f"+ {delta}" if delta > 0 else "- 1"
        result = self.temp()
        if isinstance(node.operand, Identifier):
            name = node.operand.name
            koploc = self.const(node.operand.location)

            def slow(current: str) -> str:
                return (
                    f"_incdec_slow(rt, {current}, {name!r}, {koploc},"
                    f" {kloc}, {delta}, {prefix})"
                )

            if not self.maybe_local(name):
                self.w(ind, f"{result} = {slow('_M')}")
                return result, True
            typ = self.local_type(name)
            cur = self.temp()
            new = self.temp()
            self.w(ind, f"{cur} = L.get({name!r}, _M)")
            if typ is None:
                self.w(ind, f"if {cur} is not _M and type({cur}) is not _SM:")
            else:
                self.w(ind, f"if {cur} is not _M:")
            self.w(ind + 1, f"if type({cur}) is int:")
            if typ is None:
                ty = self.temp()
                self.w(ind + 2, f"{ty} = T.get({name!r})")
                self.w(ind + 2, f"if {ty} is None:")
                self.w(ind + 3, f"{new} = {cur} {step}")
                self.w(ind + 2, f"elif type({ty}) is IntType:")
                self.w(ind + 3, f"{new} = {ty}.wrap({cur} {step})")
                self.w(ind + 2, "else:")
                self.w(ind + 3, f"{new} = coerce({ty}, {cur} {step})")
            elif isinstance(typ, ct.IntType):
                self.w(ind + 2, f"{new} = {cur} {step}")
                self.w(
                    ind + 2,
                    f"if not {typ.min_value} <= {new} <= {typ.max_value}:",
                )
                self.w(ind + 3, f"{new} = {self.const(typ)}.wrap({new})")
            else:
                self.w(ind + 2, f"{new} = {self.coerced(typ, f'{cur} {step}')}")
            self.w(ind + 2, f"L[{name!r}] = {new}")
            self.w(ind + 2, f"{result} = {new if prefix else cur}")
            self.w(ind + 1, f"elif isinstance({cur}, (int, float)):")
            declared = (
                f"T.get({name!r})" if typ is None else self.const(typ)
            )
            self.w(
                ind + 2,
                f"L[{name!r}] = {new} = coerce({declared}, {cur} {step})",
            )
            self.w(ind + 2, f"{result} = {new if prefix else cur}")
            self.w(ind + 1, "else:")
            self.w(
                ind + 2,
                "raise SegmentationFault(f'++/-- on non-number "
                f"{{{cur}!r}}', {kloc})",
            )
            self.w(ind, "else:")
            self.w(ind + 1, f"{result} = {slow(cur)}")
            return result, True
        slot = self.hoist(ind, self.slot(node.operand, ind))
        old = self.temp()
        self.w(ind, f"{old} = {slot}.get(rt, {kloc})")
        self.w(ind, f"if not isinstance({old}, (int, float)):")
        self.w(
            ind + 1,
            f"raise SegmentationFault(f'++/-- on non-number {{{old}!r}}',"
            f" {kloc})",
        )
        self.w(ind, f"{slot}.set(rt, {old} {step}, {kloc})")
        if prefix:
            self.w(ind, f"{result} = {slot}.get(rt, {kloc})")
        else:
            self.w(ind, f"{result} = {old}")
        return result, True

    def _e_binary(self, node: Binary, ind: int) -> tuple[str, bool]:
        op = node.op
        kloc = self.const(node.location)
        if op in ("&&", "||"):
            return self._e_logical(node, op, ind)
        if op in ("==", "!="):
            yes, no = ("1", "0") if op == "==" else ("0", "1")
            if _is_int_literal(node.left) or _is_int_literal(node.right):
                left = self.atom(node.left, ind)
                right = self.atom(node.right, ind)
                return (
                    f"((1 if {left} {op} {right} else 0)"
                    f" if {self._ints(node, left, right)}"
                    f" else ({yes} if _values_equal({left}, {right}) else {no}))",
                    False,
                )
            left, right = self.seq((node.left, node.right), ind)
            return (
                f"({yes} if _values_equal({left}, {right}) else {no})",
                False,
            )
        if op in ("+", "-"):
            left = self.atom(node.left, ind)
            right = self.atom(node.right, ind)
            return (
                f"(({left} {op} {right}) if {self._ints(node, left, right)}"
                f" else binop({op!r}, {left}, {right}, {kloc}))",
                False,
            )
        if op in ("<", ">", "<=", ">="):
            left = self.atom(node.left, ind)
            right = self.atom(node.right, ind)
            return (
                f"((1 if {left} {op} {right} else 0)"
                f" if {self._ints(node, left, right)}"
                f" else binop({op!r}, {left}, {right}, {kloc}))",
                False,
            )
        left, right = self.seq((node.left, node.right), ind)
        return f"binop({op!r}, {left}, {right}, {kloc})", False

    @staticmethod
    def _ints(node: Binary, left: str, right: str) -> str:
        """The int guard of a binary fast path; an int literal operand
        needs no runtime test."""
        tests = [
            f"type({text}) is int"
            for operand, text in ((node.left, left), (node.right, right))
            if not _is_int_literal(operand)
        ]
        return " and ".join(tests) or "True"

    def _e_logical(self, node: Binary, op: str, ind: int) -> tuple[str, bool]:
        left, _pure = self.value(node.left, ind)
        right_lines, (right, _rpure) = self._buffered(
            lambda: self.value(node.right, ind + 1)
        )
        if not right_lines:
            if op == "&&":
                return (
                    f"(0 if not truthy({left})"
                    f" else (1 if truthy({right}) else 0))",
                    False,
                )
            return (
                f"(1 if truthy({left})"
                f" else (1 if truthy({right}) else 0))",
                False,
            )
        # The right operand needs statements, so the short circuit
        # becomes control flow around them.
        result = self.temp()
        if op == "&&":
            self.w(ind, f"if not truthy({left}):")
            self.w(ind + 1, f"{result} = 0")
            self.w(ind, "else:")
            self.out.extend(right_lines)
            self.w(ind + 1, f"{result} = 1 if truthy({right}) else 0")
        else:
            self.w(ind, f"if truthy({left}):")
            self.w(ind + 1, f"{result} = 1")
            self.w(ind, "else:")
            self.out.extend(right_lines)
            self.w(ind + 1, f"{result} = 1 if truthy({right}) else 0")
        return result, True

    def _e_conditional(self, node: Conditional, ind: int) -> tuple[str, bool]:
        cond, _pure = self.value(node.cond, ind)
        then_lines, (then, _tp) = self._buffered(
            lambda: self.value(node.then, ind + 1)
        )
        other_lines, (other, _op) = self._buffered(
            lambda: self.value(node.other, ind + 1)
        )
        if not then_lines and not other_lines:
            # Plain truthy, no int fast path - like the tree-walker.
            return f"({then} if truthy({cond}) else {other})", False
        result = self.temp()
        self.w(ind, f"if truthy({cond}):")
        self.out.extend(then_lines)
        self.w(ind + 1, f"{result} = {then}")
        self.w(ind, "else:")
        self.out.extend(other_lines)
        self.w(ind + 1, f"{result} = {other}")
        return result, True

    def _e_assign(self, node: Assign, ind: int) -> tuple[str, bool]:
        if isinstance(node.target, Identifier):
            return self._e_assign_name(node, ind)
        kloc = self.const(node.location)
        slot = self.hoist(ind, self.slot(node.target, ind))
        rhs, _pure = self.value(node.value, ind)
        if node.op == "=":
            self.w(ind, f"{slot}.set(rt, {rhs}, {kloc})")
        else:
            # Compound: the right-hand side runs first, then the slot
            # is re-read for the combine (tree-walker order).
            rhs_t = self.hoist(ind, rhs)
            self.w(
                ind,
                f"{slot}.set(rt, binop({node.op[:-1]!r},"
                f" {slot}.get(rt, {kloc}), {rhs_t}, {kloc}), {kloc})",
            )
        result = self.hoist(ind, f"{slot}.get(rt, {kloc})")
        return result, True

    def _e_assign_name(self, node: Assign, ind: int) -> tuple[str, bool]:
        name = node.target.name
        kloc = self.const(node.location)
        ktloc = self.const(node.target.location)
        compound = None if node.op == "=" else node.op[:-1]
        cur = "_M"
        result = self.temp()
        outer = ind
        if self.maybe_local(name):
            typ = self.local_type(name)
            if typ is None:
                cur = self.temp()
                self.w(ind, f"{cur} = L.get({name!r}, _M)")
                self.w(ind, f"if {cur} is not _M and type({cur}) is not _SM:")
            else:
                self.w(ind, f"if {name!r} in L:")
            rhs, pure = self.value(node.value, ind + 1)
            if compound is not None:
                # Re-read the local *after* the right-hand side ran, so
                # the side effects of the right-hand side are visible
                # to the combine (tree-walker order).
                if not pure:
                    rhs = self.hoist(ind + 1, rhs)
                rhs = f"binop({compound!r}, L[{name!r}], {rhs}, {kloc})"
            if typ is None:
                rhs = f"coerce(T.get({name!r}), {rhs})"
            else:
                rhs = self.coerced(typ, rhs, None if compound else node.value)
            self.w(ind + 1, f"{result} = L[{name!r}] = {rhs}")
            self.w(ind, "else:")
            outer = ind + 1
        env = self.temp()
        # Resolution (and the undefined-variable error) happens before
        # the right-hand side is evaluated, like `resolve_slot`.
        self.w(outer, f"{env} = _name_env_slot(rt, {cur}, {name!r}, {ktloc})")
        rhs2, _pure2 = self.value(node.value, outer)
        self.w(
            outer,
            f"{result} = _finish_assign(rt, {env}, {rhs2},"
            f" {compound!r}, {kloc})",
        )
        return result, True

    def _e_call(self, node: Call, ind: int) -> tuple[str, bool]:
        callee = node.callee
        kloc = self.const(node.location)
        self.tick(ind)
        if (
            self.program.has_function(callee)
            and self.program.function(callee).body is not None
        ):
            args = self.seq(node.args, ind)
            packed = ", ".join(args) + ("," if len(args) == 1 else "")
            result = self.hoist(ind, f"_fn_{callee}(rt, ({packed}))")
            return result, True
        args = self.seq(node.args, ind)
        builtin = REGISTRY.get(callee)
        if builtin is None:
            # Undefined: the tree-walker's resolution raises its error
            # when the call runs, never while lowering.
            target = f"rt._call_builtin_or_user({callee!r}, "
        else:
            target = f"{self.const(builtin)}(rt, "
        result = self.hoist(ind, f"{target}[{', '.join(args)}], {kloc})")
        return result, True

    def _e_call_indirect(self, node: CallIndirect, ind: int) -> tuple[str, bool]:
        kloc = self.const(node.location)
        self.tick(ind)
        func, _pure = self.value(node.func, ind)
        target = self.hoist(ind, f"_indirect_target({func}, {kloc})")
        args = self.seq(node.args, ind)
        result = self.hoist(
            ind,
            f"rt._call_builtin_or_user({target}, [{', '.join(args)}], {kloc})",
        )
        return result, True

    def _e_member(self, node: Member, ind: int) -> tuple[str, bool]:
        kloc = self.const(node.location)
        base = self.atom(node.base, ind)
        fname = node.field_name
        return (
            f"({base}.fields[{fname!r}] if type({base}) is StructValue"
            f" and {fname!r} in {base}.fields"
            f" else struct_from(rt, {base}, {fname!r}, {kloc}).get({fname!r},"
            f" {kloc}))",
            False,
        )

    def _e_index(self, node: Index, ind: int) -> tuple[str, bool]:
        kloc = self.const(node.location)
        base = self.atom(node.base, ind)
        index = self.atom(node.index, ind)
        return (
            f"({base}.items[{index}] if type({base}) is ArrayValue"
            f" and type({index}) is int and 0 <= {index} < len({base}.items)"
            f" else index_value({base}, {index}, {kloc}))",
            False,
        )

    def _e_cast(self, node: Cast, ind: int) -> tuple[str, bool]:
        expr, _pure = self.value(node.operand, ind)
        return f"cast_value({self.const(node.type)}, {expr})", False

    def _e_sizeof(self, node: SizeOf, ind: int) -> tuple[str, bool]:
        return repr(sizeof_value(node.type, self.program.structs)), True

    def _e_initlist(self, node: InitList, ind: int) -> tuple[str, bool]:
        items = self.seq(node.items, ind)
        return f"ArrayValue(None, [{', '.join(items)}])", False

    # -- lvalues -------------------------------------------------------------

    def slot(self, node, ind: int) -> str:
        """A slot-producing expression (evaluated at most once,
        immediately; parents hoist when ordering demands it)."""
        if isinstance(node, Identifier):
            return f"rt._name_slot({node.name!r}, {self.const(node.location)})"
        if isinstance(node, Member):
            kloc = self.const(node.location)
            base, _pure = self.value(node.base, ind)
            fname = node.field_name
            return (
                f"FieldSlot(struct_from(rt, {base}, {fname!r}, {kloc}),"
                f" {fname!r})"
            )
        if isinstance(node, Index):
            kloc = self.const(node.location)
            base, index = self.seq((node.base, node.index), ind)
            return f"index_slot({base}, {index}, {kloc})"
        if isinstance(node, Unary) and node.op == "*":
            kloc = self.const(node.location)
            expr, _pure = self.value(node.operand, ind)
            return f"_deref_slot({expr}, {kloc})"
        return f"_not_assignable({self.const(node.location)})"

    _STMT = {
        ExprStmt: _s_expr_stmt,
        VarDecl: _s_var_decl,
        Block: _s_block,
        If: _s_if,
        While: _s_while,
        DoWhile: _s_do_while,
        For: _s_for,
        Switch: _s_switch,
        Break: _s_break,
        Continue: _s_continue,
        Return: _s_return,
    }

    _EXPR = {
        IntLiteral: _e_literal,
        FloatLiteral: _e_literal,
        StringLiteral: _e_literal,
        CharLiteral: _e_literal,
        BoolLiteral: _e_bool,
        NullLiteral: _e_null,
        Identifier: _e_identifier,
        Unary: _e_unary,
        IncDec: _e_incdec,
        Binary: _e_binary,
        Conditional: _e_conditional,
        Assign: _e_assign,
        Call: _e_call,
        CallIndirect: _e_call_indirect,
        Member: _e_member,
        Index: _e_index,
        Cast: _e_cast,
        SizeOf: _e_sizeof,
        InitList: _e_initlist,
    }
