"""No ``blockdec`` module indexes with a record's ``row`` or ``positions``.

``PositionPrediction.row`` and ``.positions`` are tuples of Python ints. numpy
reads a tuple subscript as one coordinate per axis, not as a list of ids:
on an [R, V] matrix, ``probs[preds.row]`` with two ids returns one element,
silently, where a list would return two rows. Code in ``src/`` reads
the tuples element by element (``row[i]``) or passes ``list(preds.row)``; this
lint refuses a subscript whose index is such an attribute itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blockdec"
MODULES = sorted(SRC.glob("*.py"))
RECORD_TUPLES = {"row", "positions"}


def _tuple_subscripts(tree: ast.AST) -> list[int]:
    """Line of every ``x[<expr>.row]`` or ``x[<expr>.positions]``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Attribute) and node.slice.attr in RECORD_TUPLES]


def test_a_tuple_subscript_is_one_coordinate_per_axis():
    probs = np.arange(12.0).reshape(3, 4)
    assert probs[[1, 2]].shape == (2, 4)
    assert probs[(1, 2)] == 6.0  # one element, no error


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_indexes_with_a_record_tuple(path):
    lines = _tuple_subscripts(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} indexes with a record's row or positions at lines {lines}"


def test_the_lint_catches_a_planted_subscript():
    planted = "def nll(preds, truth):\n    return -np.log(preds.table.probs[preds.row][truth])\n"
    assert _tuple_subscripts(ast.parse(planted)) == [2]
    assert _tuple_subscripts(ast.parse("tokens = block[self.positions]")) == [1]


def test_the_lint_passes_element_reads_and_lists():
    source = ("r = preds.row[i]\n"
              "rows = table.probs[list(preds.row)]\n"
              "p = table.probs[r, truth[i]]\n"
              "chosen = [preds.positions[i] for i in idx]\n")
    assert _tuple_subscripts(ast.parse(source)) == []
