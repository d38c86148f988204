"""Layering: `repro.inject` sits below `repro.pipeline` in the layer
map, so no inject module may import the pipeline at run time - not at
module level and not lazily inside a function.  Imports under
`if TYPE_CHECKING:` are type-only and allowed."""

import ast
from pathlib import Path

import pytest

import repro.inject

INJECT_DIR = Path(repro.inject.__file__).parent
FORBIDDEN = "repro.pipeline"


def _is_type_checking_guard(node: ast.If) -> bool:
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _imported_modules(node, package: str) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        anchor = package.rsplit(".", node.level - 1)[0]
        base = f"{anchor}.{base}" if base else anchor
    # `from repro import pipeline` names the package through an alias.
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def runtime_pipeline_imports(source: str, package: str) -> list[int]:
    """Line numbers of imports of `repro.pipeline` that execute at run
    time (anything outside an `if TYPE_CHECKING:` body)."""
    lines: list[int] = []

    def visit(node, type_only: bool) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not type_only:
            for name in _imported_modules(node, package):
                if name == FORBIDDEN or name.startswith(FORBIDDEN + "."):
                    lines.append(node.lineno)
                    break
        if isinstance(node, ast.If) and _is_type_checking_guard(node):
            for child in node.body:
                visit(child, True)
            for child in node.orelse:
                visit(child, type_only)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, type_only)

    visit(ast.parse(source), False)
    return lines


class TestInjectLayering:
    def test_detector_sees_lazy_and_relative_imports(self):
        source = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.pipeline.cache import SnapshotCache\n"
            "def run():\n"
            "    from repro.pipeline.executor import resolve_executor\n"
            "    from ..pipeline import cache\n"
            "    from repro import pipeline\n"
            "    import repro.pipelines\n"
        )
        assert runtime_pipeline_imports(source, "repro.inject") == [5, 6, 7]

    @pytest.mark.parametrize(
        "path",
        sorted(INJECT_DIR.rglob("*.py")),
        ids=lambda path: path.relative_to(INJECT_DIR).as_posix(),
    )
    def test_no_runtime_pipeline_import(self, path):
        assert runtime_pipeline_imports(
            path.read_text(encoding="utf-8"), "repro.inject"
        ) == [], f"{path.name} imports {FORBIDDEN} at run time"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
