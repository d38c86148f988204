"""AST node definitions for MiniC.

The AST serves two consumers: the IR builder (`repro.ir.builder`) used
for static analysis, and the interpreter (`repro.runtime.interpreter`)
used by SPEX-INJ to actually run subject systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.source import Location
from repro.lang.types import CType


class Node:
    """Base class for all AST nodes."""

    location: Location


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    pass


@dataclass
class IntLiteral(Expr):
    value: int
    location: Location


@dataclass
class FloatLiteral(Expr):
    value: float
    location: Location


@dataclass
class StringLiteral(Expr):
    value: str
    location: Location


@dataclass
class CharLiteral(Expr):
    value: int
    location: Location


@dataclass
class BoolLiteral(Expr):
    value: bool
    location: Location


@dataclass
class NullLiteral(Expr):
    location: Location


@dataclass
class Identifier(Expr):
    name: str
    location: Location


@dataclass
class Unary(Expr):
    """Prefix unary expression: ! - ~ * (deref) & (address-of)."""

    op: str
    operand: Expr
    location: Location


@dataclass
class IncDec(Expr):
    """++x / --x / x++ / x-- (value semantics handled downstream)."""

    op: str  # "++" or "--"
    operand: Expr
    prefix: bool
    location: Location


@dataclass
class Binary(Expr):
    op: str  # + - * / % << >> < > <= >= == != & | ^ && ||
    left: Expr
    right: Expr
    location: Location


@dataclass
class Conditional(Expr):
    """Ternary cond ? then : other."""

    cond: Expr
    then: Expr
    other: Expr
    location: Location


@dataclass
class Assign(Expr):
    """Assignment; op is '=' or a compound op like '+='."""

    op: str
    target: Expr
    value: Expr
    location: Location


@dataclass
class Call(Expr):
    callee: str
    args: list[Expr]
    location: Location


@dataclass
class CallIndirect(Expr):
    """Call through a function pointer (e.g. ``cmd->handler(arg)``).

    Static analysis treats these as opaque (the paper's SPEX likewise
    does not resolve indirect calls); the interpreter dispatches on the
    runtime :class:`~repro.runtime.values.FunctionRef`.
    """

    func: Expr
    args: list[Expr]
    location: Location


@dataclass
class Member(Expr):
    """base.field (arrow=False) or base->field (arrow=True)."""

    base: Expr
    field_name: str
    arrow: bool
    location: Location


@dataclass
class Index(Expr):
    base: Expr
    index: Expr
    location: Location


@dataclass
class Cast(Expr):
    type: CType
    operand: Expr
    location: Location


@dataclass
class SizeOf(Expr):
    type: CType
    location: Location


@dataclass
class InitList(Expr):
    """Brace initializer: used for struct/array globals (mapping tables)."""

    items: list[Expr]
    location: Location


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    pass


@dataclass
class ExprStmt(Stmt):
    expr: Expr
    location: Location


@dataclass
class VarDecl(Stmt):
    """Local or global variable declaration."""

    name: str
    type: CType
    init: Expr | None
    location: Location
    is_static: bool = False


@dataclass
class Block(Stmt):
    statements: list[Stmt]
    location: Location


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Stmt | None
    location: Location


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt
    location: Location


@dataclass
class DoWhile(Stmt):
    body: Stmt
    cond: Expr
    location: Location


@dataclass
class For(Stmt):
    init: Stmt | None
    cond: Expr | None
    step: Expr | None
    body: Stmt
    location: Location


@dataclass
class SwitchCase(Node):
    """One `case value:` arm (value None means `default:`)."""

    value: Expr | None
    body: list[Stmt]
    location: Location


@dataclass
class Switch(Stmt):
    subject: Expr
    cases: list[SwitchCase]
    location: Location


@dataclass
class Break(Stmt):
    location: Location


@dataclass
class Continue(Stmt):
    location: Location


@dataclass
class Return(Stmt):
    value: Expr | None
    location: Location


# ---------------------------------------------------------------------------
# Top-level declarations
# ---------------------------------------------------------------------------


@dataclass
class Param(Node):
    name: str
    type: CType
    location: Location


@dataclass
class FunctionDef(Node):
    name: str
    return_type: CType
    params: list[Param]
    body: Block | None  # None for extern declarations
    location: Location
    variadic: bool = False
    is_static: bool = False

    @property
    def is_declaration(self) -> bool:
        return self.body is None


@dataclass
class StructDecl(Node):
    name: str
    fields: list[Param]
    location: Location


@dataclass
class EnumDecl(Node):
    name: str | None
    members: list[tuple[str, int]]
    location: Location


@dataclass
class TypedefDecl(Node):
    name: str
    type: CType
    location: Location


@dataclass
class SourceAst(Node):
    """All top-level declarations of one parsed source file, in order."""

    filename: str
    declarations: list[Node] = field(default_factory=list)

    @property
    def functions(self) -> list[FunctionDef]:
        return [d for d in self.declarations if isinstance(d, FunctionDef)]

    @property
    def globals(self) -> list[VarDecl]:
        return [d for d in self.declarations if isinstance(d, VarDecl)]

    @property
    def structs(self) -> list[StructDecl]:
        return [d for d in self.declarations if isinstance(d, StructDecl)]
