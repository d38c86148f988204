"""MiniC type model.

Types matter to SPEX in two places: the *basic-type* constraint is the
declared/cast-to type of a configuration variable (e.g. "32-bit
integer"), and field-sensitivity keys dataflow facts on struct fields.
The model is deliberately structural and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class CType:
    """Base class for MiniC types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_bool(self) -> bool:
        return isinstance(self, BoolType)

    @property
    def is_string(self) -> bool:
        """True for char* / const char*, MiniC's string type."""
        return (
            isinstance(self, PointerType)
            and isinstance(self.pointee, IntType)
            and self.pointee.bits == 8
        )


@dataclass(frozen=True)
class VoidType(CType):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class BoolType(CType):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class IntType(CType):
    """Sized integer: char=8, short=16, int=32, long=64."""

    bits: int
    signed: bool = True

    # The bounds are derived once per instance and kept out of the
    # dataclass fields, so repr, equality, hashing and the pickled
    # state (`bits` and `signed` only) stay those of the two fields.

    def __post_init__(self) -> None:
        self._set_bounds()

    def _set_bounds(self) -> None:
        if self.signed:
            low, high = -(1 << (self.bits - 1)), (1 << (self.bits - 1)) - 1
        else:
            low, high = 0, (1 << self.bits) - 1
        object.__setattr__(self, "_min", low)
        object.__setattr__(self, "_max", high)

    def __getstate__(self) -> dict:
        return {"bits": self.bits, "signed": self.signed}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self._set_bounds()

    def __str__(self) -> str:
        prefix = "" if self.signed else "u"
        names = {8: "char", 16: "short", 32: "int", 64: "long"}
        base = names.get(self.bits, f"int{self.bits}")
        return f"{prefix}{base}"

    @property
    def min_value(self) -> int:
        return self._min

    @property
    def max_value(self) -> int:
        return self._max

    def wrap(self, value: int) -> int:
        """Wrap a Python int into this type's range (two's complement);
        an in-range value comes back unchanged."""
        if self._min <= value <= self._max:
            return value
        value &= (1 << self.bits) - 1
        if self.signed and value > self._max:
            value -= 1 << self.bits
        return value


@dataclass(frozen=True)
class FloatType(CType):
    bits: int = 64

    def __str__(self) -> str:
        return "float" if self.bits == 32 else "double"


@dataclass(frozen=True)
class PointerType(CType):
    pointee: CType

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(CType):
    element: CType
    length: int | None = None

    def __str__(self) -> str:
        n = "" if self.length is None else str(self.length)
        return f"{self.element}[{n}]"


@dataclass(frozen=True)
class StructField:
    name: str
    type: CType


@dataclass(frozen=True)
class StructType(CType):
    """A named struct; fields resolved via the program's struct table.

    Struct types are referenced by name so that mutually recursive
    structs and forward declarations work; the authoritative field list
    lives in :class:`StructDef` registered on the Program.
    """

    name: str

    def __str__(self) -> str:
        return f"struct {self.name}"


@dataclass
class StructDef:
    """The definition (field list) of a named struct."""

    name: str
    fields: list[StructField] = field(default_factory=list)

    def field_type(self, name: str) -> CType | None:
        for f in self.fields:
            if f.name == name:
                return f.type
        return None


# Canonical singletons used throughout the toolchain.
VOID = VoidType()
BOOL = BoolType()
CHAR = IntType(8)
SHORT = IntType(16)
INT = IntType(32)
LONG = IntType(64)
ULONG = IntType(64, signed=False)
FLOAT = FloatType(32)
DOUBLE = FloatType(64)
STRING = PointerType(CHAR)
