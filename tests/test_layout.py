"""Layout guard: no public function or method in ``src/`` exists only for
the tests (ROADMAP aim 2).

A definition counts as used when a module under ``src/``, ``jobs/``,
``benchmarks/`` or ``perfbench/`` refers to its name: as a bare name, an
attribute or an imported name. Matching is by name only, so the guard has
a blind spot. A function whose name is also a common identifier is never
flagged: a ``dist`` method called only from tests would pass, because
``dist`` is a local variable name in ``src/``.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "jobs", "benchmarks", "perfbench")


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
