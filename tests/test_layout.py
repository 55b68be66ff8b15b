"""Layout guards: no public function or method in ``src/`` exists only for
the tests (ROADMAP aim 2), every Spark Python task in ``src/`` starts in
one launcher, and one module knows the trajectory frame's point columns.

A definition counts as used when a module under ``src/``, ``jobs/`` or
``perfbench/`` refers to its name: as a bare name, an attribute or an
imported name. Matching is by name only, so the guard has a blind spot. A function whose name is also a common identifier is never
flagged: a ``dist`` method called only from tests would pass, because
``dist`` is a local variable name in ``src/``.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "jobs", "perfbench")


def _trees(*dirs: str):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _referenced(*dirs: str) -> set[str]:
    names = set()
    for _, tree in _trees(*dirs):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def test_no_src_function_is_called_only_from_tests():
    real, tests = _referenced(*CALLER_DIRS), _referenced("tests")
    test_only = sorted(
        f"{path.relative_to(ROOT)}::{node.name}"
        for path, tree in _trees("src")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name in tests
        and node.name not in real
    )
    assert test_only == [], f"defined in src/ but called only from tests/: {test_only}"


def test_only_the_launcher_calls_map_in_pandas():
    """``search.distributed.map_in_pandas`` broadcasts a task's shared
    inputs once; a ``mapInPandas`` anywhere else would ship them inside
    every task's closure."""
    sites = []
    for path, tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "mapInPandas":
                fn = next(
                    (f.name for f in tree.body if isinstance(f, ast.FunctionDef)
                     and f.lineno <= node.lineno <= f.end_lineno),
                    "<module>",
                )
                sites.append(f"{path.relative_to(ROOT)}::{fn}")
    assert sites == ["src/repro/search/distributed.py::map_in_pandas"]


def test_only_the_search_launches_spark_python_tasks():
    """``pairwise_search_df`` is the one caller of ``map_in_pandas``: GBP
    collects its point frames and prunes on the driver."""
    callers = []
    for path, tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "map_in_pandas" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                fn = next(
                    (f.name for f in tree.body if isinstance(f, ast.FunctionDef)
                     and f.lineno <= node.lineno <= f.end_lineno),
                    "<module>",
                )
                callers.append(f"{path.relative_to(ROOT)}::{fn}")
    assert callers == ["src/repro/search/distributed.py::pairwise_search_df"]


def test_only_synth_data_names_the_point_columns():
    """``synth_data`` writes, explodes and decodes the trajectory frame, so
    no other module in ``src/`` names its point columns in a string (an
    ``"xs"``, a DDL or a column path); docstrings may."""
    sites = set()
    for path, tree in _trees("src"):
        bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in bare and re.search(r"\b(xs|ys)\b", node.value)):
                sites.add(str(path.relative_to(ROOT)))
    assert sorted(sites) == ["src/repro/synth_data.py"]
