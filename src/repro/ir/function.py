"""IR containers: basic blocks, functions, modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.lang import types as ct
from repro.lang.source import Location
from repro.ir.instructions import Instruction, Terminator
from repro.ir.values import Variable


@dataclass
class BasicBlock:
    label: str
    instructions: list[Instruction] = field(default_factory=list)

    @property
    def terminator(self) -> Terminator | None:
        if self.instructions and isinstance(self.instructions[-1], Terminator):
            return self.instructions[-1]
        return None

    def successors(self) -> list[str]:
        term = self.terminator
        return term.successors() if term is not None else []

    def append(self, inst: Instruction) -> None:
        self.instructions.append(inst)

    @property
    def terminated(self) -> bool:
        return self.terminator is not None


@dataclass
class IRFunction:
    name: str
    return_type: ct.CType
    params: list[Variable]
    location: Location
    blocks: dict[str, BasicBlock] = field(default_factory=dict)
    # Every function's first block; the builder names it so.
    entry_label: ClassVar[str] = "entry"
    locals: dict[str, Variable] = field(default_factory=dict)

    def block_order(self) -> list[BasicBlock]:
        """Blocks in insertion order (deterministic)."""
        return list(self.blocks.values())

    def predecessors(self) -> dict[str, list[str]]:
        preds: dict[str, list[str]] = {label: [] for label in self.blocks}
        for block in self.blocks.values():
            for succ in block.successors():
                preds[succ].append(block.label)
        return preds

    def instructions(self):
        for block in self.blocks.values():
            yield from block.instructions


@dataclass
class IRModule:
    """Whole-program IR plus shared symbol metadata."""

    name: str
    functions: dict[str, IRFunction] = field(default_factory=dict)
    globals: dict[str, Variable] = field(default_factory=dict)
    # Global initializer expressions kept at AST level: mapping-table
    # extraction reads them structurally (Figure 4 annotations).
    global_inits: dict[str, object] = field(default_factory=dict)
    structs: dict[str, ct.StructDef] = field(default_factory=dict)

    def function(self, name: str) -> IRFunction:
        return self.functions[name]

    def has_function(self, name: str) -> bool:
        return name in self.functions
