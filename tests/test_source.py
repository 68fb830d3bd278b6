"""Rules the engine's source keeps."""
from __future__ import annotations

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "voxpillar").glob("*.py"))


def test_the_engine_has_no_assert_statement():
    # python -O strips assert statements, so an invariant must raise an error instead
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/voxpillar: {', '.join(found)}"
