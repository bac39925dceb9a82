"""No ``blockdec`` module builds a record through ``from_probs``.

``PositionPrediction.from_probs`` builds a new table with one row per
position on every call. A backend keeps one table across passes instead,
adds each distinct distribution once and builds its records with the
``PositionPrediction(positions, table, ids)`` constructor. ``from_probs`` stays as the reference record
builder of the tests, so this lint refuses any call to it in ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blockdec"
MODULES = sorted(SRC.glob("*.py"))


def _from_probs_calls(tree: ast.AST) -> list[int]:
    """Line of every call to a ``from_probs`` attribute or name."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "from_probs" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_from_probs(path):
    calls = _from_probs_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert not calls, f"{path.name} calls from_probs at lines {calls}"


@pytest.mark.parametrize("source", [
    "PositionPrediction.from_probs(masked, rows)",
    "cls.from_probs(positions, probs)",
    "core.PositionPrediction.from_probs(p, r)",
    "build = from_probs(p, r)",
    "return [f(x) for x in PositionPrediction.from_probs(p, r).row]",
])
def test_the_lint_catches_a_planted_call(source):
    assert _from_probs_calls(ast.parse(source)) == [1]


def test_the_lint_passes_the_definition_and_other_calls():
    source = "class P:\n    @classmethod\n    def from_probs(cls, p, r):\n        return cls(p, t, ids)\n"
    assert _from_probs_calls(ast.parse(source)) == []
