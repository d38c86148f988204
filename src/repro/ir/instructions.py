"""IR instruction set.

The instruction vocabulary is chosen so every pattern SPEX searches for
is a first-class fact:

* ``Cast``          -> basic-type constraints ("first cast" rule)
* ``Call``          -> semantic types, units, case sensitivity, unsafety
* ``Branch``/``SwitchInst`` conditions -> range constraints
* ``BinOp`` comparisons -> value relationships
* ``LoadField``/``StoreField`` with *field paths* -> field sensitivity
* ``AddrOf``/``LoadDeref``/``StoreDeref`` -> pointer use; deliberately
  not alias-analysed, reproducing the paper's OpenLDAP inaccuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang import types as ct
from repro.lang.source import Location
from repro.ir.values import Const, Operand, Temp, Variable


class Instruction:
    """Base class; every instruction knows its source location."""

    location: Location

    def uses(self) -> list[Operand]:
        """Operands read by this instruction."""
        return []


class Terminator(Instruction):
    """Last instruction of a block."""

    def successors(self) -> list[str]:
        return []


# -- data movement --------------------------------------------------------


@dataclass
class Assign(Instruction):
    """dest := src (loads and stores of named variables included)."""

    dest: Operand  # Temp or Variable
    src: Operand
    location: Location

    def uses(self):
        return [self.src]

    def __str__(self):
        return f"{self.dest} = {self.src}"


@dataclass
class BinOp(Instruction):
    dest: Temp
    op: str
    left: Operand
    right: Operand
    location: Location

    def uses(self):
        return [self.left, self.right]

    @property
    def is_comparison(self) -> bool:
        return self.op in ("<", ">", "<=", ">=", "==", "!=")

    def __str__(self):
        return f"{self.dest} = {self.left} {self.op} {self.right}"


@dataclass
class UnOp(Instruction):
    dest: Temp
    op: str
    operand: Operand
    location: Location

    def uses(self):
        return [self.operand]

    def __str__(self):
        return f"{self.dest} = {self.op}{self.operand}"


@dataclass
class Cast(Instruction):
    dest: Temp
    type: ct.CType
    src: Operand
    location: Location

    def uses(self):
        return [self.src]

    def __str__(self):
        return f"{self.dest} = ({self.type}) {self.src}"


# -- aggregate access --------------------------------------------------------


@dataclass
class LoadField(Instruction):
    """dest := base.path (path is a tuple of field names)."""

    dest: Temp
    base: Operand  # Variable (named struct) or Temp (pointer value)
    path: tuple[str, ...]
    location: Location

    def uses(self):
        return [self.base]

    def __str__(self):
        return f"{self.dest} = {self.base}.{'.'.join(self.path)}"


@dataclass
class StoreField(Instruction):
    base: Operand
    path: tuple[str, ...]
    src: Operand
    location: Location

    def uses(self):
        return [self.base, self.src]

    def __str__(self):
        return f"{self.base}.{'.'.join(self.path)} = {self.src}"


@dataclass
class LoadIndex(Instruction):
    dest: Temp
    base: Operand
    index: Operand
    location: Location

    def uses(self):
        return [self.base, self.index]

    def __str__(self):
        return f"{self.dest} = {self.base}[{self.index}]"


@dataclass
class StoreIndex(Instruction):
    base: Operand
    index: Operand
    src: Operand
    location: Location

    def uses(self):
        return [self.base, self.index, self.src]

    def __str__(self):
        return f"{self.base}[{self.index}] = {self.src}"


# -- pointers --------------------------------------------------------------


@dataclass
class AddrOf(Instruction):
    """dest := &var or &var.path (address taken)."""

    dest: Temp
    var: Variable
    path: tuple[str, ...]
    location: Location

    def uses(self):
        return [self.var]

    def __str__(self):
        suffix = "." + ".".join(self.path) if self.path else ""
        return f"{self.dest} = &{self.var}{suffix}"


@dataclass
class LoadDeref(Instruction):
    dest: Temp
    ptr: Operand
    location: Location

    def uses(self):
        return [self.ptr]

    def __str__(self):
        return f"{self.dest} = *{self.ptr}"


@dataclass
class StoreDeref(Instruction):
    ptr: Operand
    src: Operand
    location: Location

    def uses(self):
        return [self.ptr, self.src]

    def __str__(self):
        return f"*{self.ptr} = {self.src}"


# -- calls -----------------------------------------------------------------


@dataclass
class Call(Instruction):
    dest: Temp | None
    callee: str
    args: list[Operand]
    location: Location

    def uses(self):
        return list(self.args)

    def __str__(self):
        args = ", ".join(str(a) for a in self.args)
        prefix = f"{self.dest} = " if self.dest is not None else ""
        return f"{prefix}call {self.callee}({args})"


@dataclass
class CallIndirect(Instruction):
    """Call through a function pointer; opaque to analysis."""

    dest: Temp | None
    func: Operand
    args: list[Operand]
    location: Location

    def uses(self):
        return [self.func, *self.args]

    def __str__(self):
        args = ", ".join(str(a) for a in self.args)
        prefix = f"{self.dest} = " if self.dest is not None else ""
        return f"{prefix}call_indirect {self.func}({args})"


# -- terminators -------------------------------------------------------------


@dataclass
class Branch(Terminator):
    """Conditional branch; `cond_info` preserves the source comparison
    (operand ⋄ operand) when the condition is a comparison, which range
    and control-dependency inference key on."""

    cond: Operand
    true_label: str
    false_label: str
    location: Location
    cond_info: "CompareInfo | None" = None

    def uses(self):
        return [self.cond]

    def successors(self):
        return [self.true_label, self.false_label]

    def __str__(self):
        return f"br {self.cond} ? {self.true_label} : {self.false_label}"


@dataclass
class Jump(Terminator):
    target: str
    location: Location

    def successors(self):
        return [self.target]

    def __str__(self):
        return f"jmp {self.target}"


@dataclass
class SwitchInst(Terminator):
    subject: Operand
    cases: list[tuple[Const, str]]
    default_label: str | None
    location: Location

    def uses(self):
        return [self.subject]

    def successors(self):
        out = [label for _, label in self.cases]
        if self.default_label is not None:
            out.append(self.default_label)
        return out

    def __str__(self):
        arms = ", ".join(f"{c} -> {lbl}" for c, lbl in self.cases)
        return f"switch {self.subject} [{arms}] default {self.default_label}"


@dataclass
class Ret(Terminator):
    value: Operand | None
    location: Location

    def uses(self):
        return [self.value] if self.value is not None else []

    def __str__(self):
        return f"ret {self.value}" if self.value is not None else "ret"


@dataclass
class Unreachable(Terminator):
    location: Location

    def __str__(self):
        return "unreachable"


@dataclass(frozen=True)
class CompareInfo:
    """The comparison backing a Branch condition: left ⋄ right."""

    op: str
    left: Operand
    right: Operand
