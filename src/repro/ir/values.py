"""IR operand model.

Temps are single-assignment; Variables name declared storage and are
the loci of taint labels in `repro.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang import types as ct


class Operand:
    """Base class for instruction operands."""


@dataclass(frozen=True)
class Temp(Operand):
    """A single-assignment expression temporary."""

    id: int
    function: str

    def __str__(self) -> str:
        return f"%t{self.id}"


@dataclass(frozen=True)
class Const(Operand):
    """A literal constant (int, float, str, or None for NULL)."""

    value: object

    def __str__(self) -> str:
        if self.value is None:
            return "null"
        if isinstance(self.value, str):
            return repr(self.value)
        return str(self.value)


@dataclass(frozen=True)
class Variable(Operand):
    """Named storage: a global, a function local, or a parameter."""

    name: str
    scope: str  # "global" or the owning function's name
    kind: str  # "global" | "local" | "param" | "static"
    type: ct.CType | None = None
    param_index: int = -1

    def __str__(self) -> str:
        if self.kind == "global":
            return f"@{self.name}"
        return f"%{self.name}"


@dataclass(frozen=True)
class FuncRef(Operand):
    """A function used as a value (stored in dispatch tables)."""

    name: str

    def __str__(self) -> str:
        return f"@{self.name}"
