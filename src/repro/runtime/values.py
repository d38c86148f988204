"""Runtime value and storage model for the MiniC interpreter.

Scalars are Python ints/floats/strs; aggregates are explicit objects.
All mutable storage is reached through :class:`Slot` objects so that
``&x``, ``*p = v``, ``p->field`` and out-parameters (``strtol``'s end
pointer) share one mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import types as ct
from repro.lang.source import Location
from repro.runtime.faults import SegmentationFault


@dataclass
class FunctionRef:
    """A function designator stored in a table or variable."""

    name: str

    def __repr__(self) -> str:
        return f"<fn {self.name}>"


class StructValue:
    """An instance of a named struct: typed, field-addressable."""

    __slots__ = ("struct_name", "field_types", "fields")

    def __init__(self, struct_name: str, field_types: dict[str, ct.CType]):
        self.struct_name = struct_name
        self.field_types = field_types
        self.fields: dict[str, object] = {
            name: zero_value(t) for name, t in field_types.items()
        }

    def get(self, name: str, location: Location | None = None) -> object:
        if name not in self.fields:
            raise SegmentationFault(
                f"struct {self.struct_name} has no field {name!r}", location
            )
        return self.fields[name]

    def set(self, name: str, value: object, location: Location | None = None) -> None:
        if name not in self.fields:
            raise SegmentationFault(
                f"struct {self.struct_name} has no field {name!r}", location
            )
        self.fields[name] = coerce(self.field_types.get(name), value)

    def __repr__(self) -> str:
        return f"<struct {self.struct_name} {self.fields}>"


class ArrayValue:
    """A fixed-length array with element type for coercion and bounds.

    `items` may be shared copy-on-write with other arrays (snapshot
    restores hand every resume the captured list; see
    `repro.runtime.snapshot`).  `shared` marks such a list: the first
    write through `set` (or the `memset` builtin - the only two writers
    of `items`) takes a private copy before mutating it.
    """

    __slots__ = ("element_type", "items", "shared")

    def __init__(self, element_type: ct.CType | None, items: list[object]):
        self.element_type = element_type
        self.items = items
        self.shared = False

    def __len__(self) -> int:
        return len(self.items)

    def get(self, index: int, location: Location | None = None) -> object:
        self._check(index, location)
        return self.items[index]

    def set(self, index: int, value: object, location: Location | None = None) -> None:
        self._check(index, location)
        if self.shared:
            self.privatize()
        self.items[index] = coerce(self.element_type, value)

    def privatize(self) -> None:
        """Give this array its own copy of a shared `items` list (every
        writer calls this before its first write)."""
        self.items = self.items.copy()
        self.shared = False

    def _check(self, index: int, location: Location | None) -> None:
        if not isinstance(index, int):
            raise SegmentationFault(f"non-integer array index {index!r}", location)
        if index < 0 or index >= len(self.items):
            raise SegmentationFault(
                f"array index {index} out of bounds [0, {len(self.items)})", location
            )

    def __repr__(self) -> str:
        return f"<array[{len(self.items)}]>"


class SparseArrayValue(ArrayValue):
    """Large allocation backed by a sparse cell map.

    Lets subject systems malloc realistic arena sizes (hundreds of MB)
    without materializing Python lists; unwritten cells read as zero.
    """

    __slots__ = ("length", "cells")

    def __init__(self, element_type: ct.CType | None, length: int):
        self.element_type = element_type
        self.items = None  # type: ignore[assignment]
        self.length = length
        self.cells: dict[int, object] = {}

    def __len__(self) -> int:
        return self.length

    def get(self, index: int, location: Location | None = None) -> object:
        self._check_sparse(index, location)
        return self.cells.get(index, 0)

    def set(self, index: int, value: object, location: Location | None = None) -> None:
        self._check_sparse(index, location)
        self.cells[index] = coerce(self.element_type, value)

    def _check_sparse(self, index: int, location: Location | None) -> None:
        if not isinstance(index, int):
            raise SegmentationFault(f"non-integer array index {index!r}", location)
        if index < 0 or index >= self.length:
            raise SegmentationFault(
                f"array index {index} out of bounds [0, {self.length})", location
            )

    def __repr__(self) -> str:
        return f"<sparse-array[{self.length}]>"


class Slot:
    """Abstract addressable storage cell.

    `rt` is the running interpreter: a slot that names its storage
    (`GlobalSlot`, the errno slot) resolves through it, every other
    slot holds its storage and ignores it.
    """

    def get(self, rt, location: Location | None = None) -> object:
        raise NotImplementedError

    def set(self, rt, value: object, location: Location | None = None) -> None:
        raise NotImplementedError


@dataclass
class VarSlot(Slot):
    """A named variable in an environment dict (a local or a static)."""

    env: dict
    name: str
    declared_type: ct.CType | None = None

    def get(self, rt, location: Location | None = None) -> object:
        return self.env[self.name]

    def set(self, rt, value: object, location: Location | None = None) -> None:
        self.env[self.name] = coerce(self.declared_type, value)


@dataclass(frozen=True)
class GlobalSlot(Slot):
    """A global variable by name - what `&global` points at.

    It holds no storage: every access resolves `name` in the running
    interpreter's globals, so a pointer to a global is an immutable
    value that any number of state bundles (a snapshot and each of its
    resumes) can share by reference.
    """

    name: str
    declared_type: ct.CType | None = None

    def get(self, rt, location: Location | None = None) -> object:
        return rt.globals[self.name]

    def set(self, rt, value: object, location: Location | None = None) -> None:
        rt.globals[self.name] = coerce(self.declared_type, value)


class ErrnoSlot(Slot):
    """`&errno`: storage-free like `GlobalSlot` - every access resolves
    through the running interpreter's `errno` - so the one instance,
    `ERRNO_SLOT`, serves every run and every state bundle."""

    def get(self, rt, location: Location | None = None) -> object:
        return rt.errno

    def set(self, rt, value: object, location: Location | None = None) -> None:
        rt.errno = int(value) if isinstance(value, (int, float)) else 0


ERRNO_SLOT = ErrnoSlot()


@dataclass
class FieldSlot(Slot):
    base: StructValue
    field_name: str

    def get(self, rt, location: Location | None = None) -> object:
        return self.base.get(self.field_name, location)

    def set(self, rt, value: object, location: Location | None = None) -> None:
        self.base.set(self.field_name, value, location)


@dataclass
class ElemSlot(Slot):
    base: ArrayValue
    index: int

    def get(self, rt, location: Location | None = None) -> object:
        return self.base.get(self.index, location)

    def set(self, rt, value: object, location: Location | None = None) -> None:
        self.base.set(self.index, value, location)


@dataclass(frozen=True)
class Pointer:
    """A typed pointer to a slot (or NULL, represented by None overall);
    `rt` is the running interpreter (see `Slot`)."""

    slot: Slot

    def deref(self, rt, location: Location | None = None) -> object:
        return self.slot.get(rt, location)

    def store(self, rt, value: object, location: Location | None = None) -> None:
        self.slot.set(rt, value, location)


@dataclass
class FileHandle:
    """An open emulated file (FILE* / fd target)."""

    fd: int
    path: str
    mode: str
    is_dir: bool = False
    read_pos: int = 0
    lines: list[str] = field(default_factory=list)
    closed: bool = False


def zero_value(typ: ct.CType | None) -> object:
    """The C zero-initialized value for a type."""
    if typ is None:
        return 0
    if typ.is_pointer:
        return None
    if typ.is_float:
        return 0.0
    if typ.is_bool:
        return 0
    if isinstance(typ, ct.ArrayType):
        length = typ.length or 0
        return ArrayValue(typ.element, [zero_value(typ.element) for _ in range(length)])
    if isinstance(typ, ct.StructType):
        # Resolved lazily by the interpreter (needs the struct table);
        # a bare zero here only appears for untyped temporaries.
        return None
    return 0


def coerce(typ: ct.CType | None, value: object) -> object:
    """Apply C storage semantics when writing `value` into type `typ`.

    Integer types wrap (two's complement); bool normalizes to 0/1;
    float truncation for int targets; everything else passes through.
    This is where 9,000,000,000 stored into a 32-bit size parameter
    silently becomes 410065408 - the Figure 5(a) vulnerability.
    """
    if typ is None:
        return value
    if isinstance(typ, ct.IntType):
        if isinstance(value, bool):
            return 1 if value else 0
        if isinstance(value, float):
            value = int(value)
        if isinstance(value, int):
            return typ.wrap(value)
        return value  # pointers/strings stored via int-typed slot: keep
    if isinstance(typ, ct.BoolType):
        if isinstance(value, (int, float)):
            return 1 if value else 0
        return 1 if value is not None else 0
    if isinstance(typ, ct.FloatType):
        if isinstance(value, bool):
            return 1.0 if value else 0.0
        if isinstance(value, int):
            return float(value)
        return value
    return value


def truthy(value: object) -> bool:
    """C truth: zero and NULL are false; everything else (including
    the empty string, a non-NULL pointer) is true."""
    if value is None:
        return False
    if isinstance(value, (int, float)):
        return value != 0
    return True
