"""The library API that README's "Library use" documents is what the package exports."""

import re
from pathlib import Path

import recbench

README = Path(__file__).resolve().parents[1] / "README.md"


def test_documented_names_are_exported():
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    imported = [
        name.strip()
        for names in re.findall(r"^from recbench import (.+)$", section, flags=re.MULTILINE)
        for name in names.split(",")
    ]
    (pieces,) = [par for par in section.split("\n\n") if par.startswith("Lower-level pieces")]
    listed = re.findall(r"`([^`]+)`", pieces)
    assert imported and listed
    assert [name for name in imported + listed if name not in recbench.__all__] == []


def test_every_exported_name_resolves():
    assert [name for name in recbench.__all__ if not hasattr(recbench, name)] == []
