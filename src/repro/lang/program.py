"""Linking of parsed MiniC files into a whole-program view.

A :class:`Program` is what SPEX analyses and the interpreter runs: a
set of source files parsed against shared typedef/enum environments,
with unified symbol tables for functions, globals and structs (the
paper's inter-procedural scope is "a single program", §2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang import types as ct
from repro.lang.ast_nodes import (
    Block,
    FunctionDef,
    SourceAst,
    StructDecl,
    VarDecl,
)
from repro.lang.errors import SemanticError
from repro.lang.parser import Parser
from repro.lang.source import SourceFile


@dataclass
class Program:
    """A linked MiniC translation unit."""

    name: str = "<program>"
    files: list[SourceFile] = field(default_factory=list)
    asts: list[SourceAst] = field(default_factory=list)
    functions: dict[str, FunctionDef] = field(default_factory=dict)
    prototypes: dict[str, FunctionDef] = field(default_factory=dict)
    globals: dict[str, VarDecl] = field(default_factory=dict)
    structs: dict[str, ct.StructDef] = field(default_factory=dict)
    enum_constants: dict[str, int] = field(default_factory=dict)
    typedefs: dict[str, ct.CType] = field(default_factory=dict)

    @classmethod
    def from_sources(
        cls, sources: dict[str, str] | list[tuple[str, str]], name: str = "<program>"
    ) -> "Program":
        """Parse and link `{filename: text}` sources, in order."""
        program = cls(name=name)
        items = sources.items() if isinstance(sources, dict) else sources
        for filename, text in items:
            program.add_source(filename, text)
        return program

    def add_source(self, filename: str, text: str) -> SourceAst:
        source = SourceFile(filename, text)
        parser = Parser(source, self.typedefs, self.enum_constants)
        ast = parser.parse_file()
        self.files.append(source)
        self.asts.append(ast)
        self._register(ast)
        return ast

    def _register(self, ast: SourceAst) -> None:
        for decl in ast.declarations:
            if isinstance(decl, FunctionDef):
                if decl.is_declaration:
                    self.prototypes.setdefault(decl.name, decl)
                else:
                    if decl.name in self.functions:
                        raise SemanticError(
                            f"duplicate function {decl.name!r}", decl.location
                        )
                    self.functions[decl.name] = decl
            elif isinstance(decl, VarDecl):
                self._register_global(decl)
            elif isinstance(decl, Block):
                # Multi-declarator global statement.
                for inner in decl.statements:
                    if isinstance(inner, VarDecl):
                        self._register_global(inner)
            elif isinstance(decl, StructDecl):
                fields = [ct.StructField(p.name, p.type) for p in decl.fields]
                self.structs[decl.name] = ct.StructDef(decl.name, fields)

    def _register_global(self, decl: VarDecl) -> None:
        if decl.name in self.globals:
            raise SemanticError(f"duplicate global {decl.name!r}", decl.location)
        self.globals[decl.name] = decl

    # -- lookups -----------------------------------------------------------

    def function(self, name: str) -> FunctionDef:
        if name not in self.functions:
            raise SemanticError(f"undefined function {name!r}")
        return self.functions[name]

    def has_function(self, name: str) -> bool:
        return name in self.functions

    def struct_def(self, name: str) -> ct.StructDef:
        if name not in self.structs:
            raise SemanticError(f"undefined struct {name!r}")
        return self.structs[name]

    def count_code_lines(self) -> int:
        """Whole-program LoC (used for Table 4)."""
        return sum(f.count_code_lines() for f in self.files)
