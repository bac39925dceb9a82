"""No ``blockdec`` module reads a dense ``.probs`` matrix of a row table.

A row table stores each row as its base plus the columns that differ from
it. The dense [R, V] matrix of every row costs 32 KB a row at V = 4,096, the
memory the compact store saves, so only tests build it, with
``conftest.table_probs``. Code in ``src/`` reads rows through ``RowTable.row``
and ``RowTable.at``, or draws from them through ``RowTable.draw``; this lint
refuses any ``.probs`` attribute in ``src/``, so neither a ``RowTable.probs``
nor a read of one comes back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blockdec"
MODULES = sorted(SRC.glob("*.py"))


def _probs_reads(tree: ast.AST) -> list[int]:
    """Line of every ``<expr>.probs`` attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "probs"]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "denoisers.py", "noise.py", "sampling.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_the_dense_matrix(path):
    lines = _probs_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} reads RowTable.probs at lines {lines}"


@pytest.mark.parametrize("source", [
    "nll = -np.log(preds.table.probs[list(preds.row), truths])",
    "probs = table.probs",
    "return self._table.probs[row]",
    "rows = [t.probs for t in tables]",
    "f(getattr(x, 'y').probs)",
])
def test_the_lint_catches_a_planted_read(source):
    assert _probs_reads(ast.parse(source)) == [1]


def test_the_lint_passes_the_property_rows_and_other_names():
    source = ("class RowTable:\n"
              "    @property\n"
              "    def probs(self):\n"
              "        return np.array([self.row(r) for r in range(self.size)])\n"
              "probs = table.row(r)\n"
              "p = PositionPrediction.from_probs(positions, probs)\n"
              "v = table.at(preds.row, truths)\n")
    assert _probs_reads(ast.parse(source)) == []
