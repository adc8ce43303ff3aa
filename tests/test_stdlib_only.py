"""The package runs on the standard library alone: every import in
``src/recbench`` names a standard-library module or is relative."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "recbench"


def _outside_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in sys.stdlib_module_names:
                yield f"{path.name}:{node.lineno}: {name}"


def test_every_import_is_stdlib_or_relative():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    assert [bad for path in sources for bad in _outside_imports(path)] == []
