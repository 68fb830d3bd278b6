"""Rules the engine's source keeps."""
from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

from voxpillar import sparse_conv

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "voxpillar").glob("*.py"))
BENCH_RUN = ROOT / "perfbench" / "run.py"


def test_the_engine_has_no_assert_statement():
    # python -O strips assert statements, so an invariant must raise an error instead
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/voxpillar: {', '.join(found)}"


def _bench_assignment(name: str):
    """The value of the module-level assignment to `name` in perfbench/run.py, read with
    `ast`: importing it would set the process's BLAS thread variables."""
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))


def test_every_function_the_benchmark_traces_resolves_in_the_engine():
    traced = [key.value.split(".") for key in _bench_assignment("TRACED").keys]
    assert traced
    missing = [f"{module}.{attr}" for module, attr in traced
               if not callable(getattr(importlib.import_module(f"voxpillar.{module}"), attr, None))]
    assert not missing, f"perfbench traces what the engine lacks: {', '.join(missing)}"
    # the tracer's observers read a conv's map, and a map's coordinates and spec, by position
    assert list(inspect.signature(sparse_conv.sparse_conv).parameters)[:4] == [
        "x", "spec", "weights", "kmap"]
    assert list(inspect.signature(sparse_conv.build_kernel_map).parameters)[:2] == [
        "coords_in", "spec"]
