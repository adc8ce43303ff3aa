"""The library API that README's "Library use" documents is what the package exports."""

import ast
import re
from pathlib import Path

import recbench
from recbench import errors

ROOT = Path(__file__).resolve().parents[1]


def _section():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def _documented():
    """The names of the list that follows the paragraph "The package root exports ..."."""
    listing = _section().split("\nThe package root exports ", 1)[1].split("\n\n", 2)[1]
    assert listing.startswith("- ")
    return set(re.findall(r"`(\w+)`", listing))


def _error_classes():
    return {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, Exception)}


def test_documented_names_are_exported():
    # both ways: __all__ is README's names plus the error classes
    documented = _documented() | _error_classes()
    exported = set(recbench.__all__)
    assert len(recbench.__all__) == len(exported)
    assert sorted(documented - exported) == []
    assert sorted(exported - documented) == []


def test_error_classes_are_documented():
    assert _error_classes() <= _documented()


def test_the_examples_import_exported_names():
    imported = [
        name.strip()
        for names in re.findall(r"^from recbench import (.+)$", _section(), flags=re.MULTILINE)
        for name in names.split(",")
    ]
    assert imported
    assert [name for name in imported if name not in recbench.__all__] == []


def test_every_exported_name_resolves():
    assert [name for name in recbench.__all__ if not hasattr(recbench, name)] == []


def test_the_benchmark_imports_exported_names():
    # the benchmark's set-up probe and checks import from the package root;
    # a name trimmed from __all__ would fail only inside a benchmark run
    imported = {
        (path.name, alias.name)
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "recbench" and node.level == 0
        for alias in node.names
    }
    assert {name for _, name in imported} >= {"build_index", "load_content", "tokenize"}
    assert sorted(pair for pair in imported if pair[1] not in recbench.__all__) == []
