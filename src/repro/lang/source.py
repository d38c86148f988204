"""Source files and locations for MiniC diagnostics.

Every AST node, IR instruction, inferred constraint and injection report
carries a :class:`Location` so that tool output can point at concrete
source lines, exactly as SPEX's error reports do.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Location:
    """A point in a source file (1-based line and column)."""

    filename: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


UNKNOWN_LOCATION = Location("<unknown>", 0, 0)


@dataclass
class SourceFile:
    """One MiniC source file, kept in memory.

    Subject systems embed their sources as Python strings, so a
    SourceFile is just a named text buffer with line access for
    diagnostics and for quoting code snippets in reports.
    """

    name: str
    text: str
    _lines: list[str] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self._lines = self.text.splitlines()

    def count_code_lines(self) -> int:
        """Count non-blank, non-comment-only lines (the LoC metric)."""
        count = 0
        in_block_comment = False
        for raw in self._lines:
            line = raw.strip()
            if in_block_comment:
                if "*/" in line:
                    in_block_comment = False
                    line = line.split("*/", 1)[1].strip()
                else:
                    continue
            if not line:
                continue
            if line.startswith("//"):
                continue
            if line.startswith("/*"):
                if "*/" not in line:
                    in_block_comment = True
                    continue
                line = line.split("*/", 1)[1].strip()
                if not line:
                    continue
            count += 1
        return count
