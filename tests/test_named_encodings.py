"""Every text file the package opens names its encoding: the locale's
default (cp1252 on many Windows systems) would read and write other bytes,
and a run directory must be byte-identical wherever it is made."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "recbench"

# the positional index of ``encoding`` in each call that opens a text file
ENCODING_POSITION = {"open": 3, "read_text": 0, "write_text": 1}


def _text_opens(path):
    """Yield ``(location, names its encoding)`` for each call in ``path`` that
    opens a file in text mode."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in ENCODING_POSITION:
            continue
        keywords = {kw.arg: kw.value for kw in node.keywords}
        if name == "open":
            mode = keywords.get("mode", node.args[1] if len(node.args) > 1 else None)
            if isinstance(mode, ast.Constant) and "b" in mode.value:
                continue
        named = "encoding" in keywords or len(node.args) > ENCODING_POSITION[name]
        yield f"{path.name}:{node.lineno}: {name}(", named


def test_every_text_open_names_its_encoding():
    opens = [found for path in sorted(SRC.glob("*.py")) for found in _text_opens(path)]
    assert opens  # the walk sees the package's reads and writes
    assert [where for where, named in opens if not named] == []
