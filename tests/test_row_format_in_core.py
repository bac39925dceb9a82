"""A row's storage, its sampling index and their bytes are known to ``core``
alone.

``RowTable`` stores a row as its base plus the columns that differ, or
dense, and ``RowTable.draw`` builds each row's chunk index from that form
and charges it to the table's byte budget. A module that read the form or
the index itself would be a second reader that can drift from the one
``core`` changes, so no ``blockdec`` module but ``core`` may name
``CDF_CHUNK``, a ``_chunk_*`` helper, or a table's private storage
(``_base``, ``_diff``) or index (``_index``): as a name, an attribute, an
import or a definition.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blockdec"
MODULES = sorted(SRC.glob("*.py"))
PRIVATE = ("CDF_CHUNK", "_base", "_diff", "_index")


def _private(name) -> bool:
    return name in PRIVATE or str(name).startswith("_chunk_")


def _named(tree: ast.AST) -> list[int]:
    """Lines that name a member of the row format: a name or attribute in any
    context, an import (aliased or not), or a function or class definition."""
    lines = []
    for node in ast.walk(tree):
        names = [getattr(node, "id", None), getattr(node, "attr", None)]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        if any(_private(name) for name in names if name):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "denoisers.py", "sampling.py"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_no_module_outside_core_names_the_row_format(path):
    lines = _named(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} names a row table's format or index at lines {lines}"


def test_core_defines_the_chunk_index():
    tree = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    assert _named(tree)


@pytest.mark.parametrize("source", [
    "from .core import CDF_CHUNK",
    "from .core import CDF_CHUNK as chunk",
    "k = u // core.CDF_CHUNK",
    "entry = table._index.setdefault(temperature, {})",
    "base, diff = table._base[r], table._diff[r]",
    "table._diff = []",
    "def _chunk_index(table, r, temperature): ...",
    "cdf = _chunk_cdf(entry, k, width)",
    "cdf = table._chunk_cdf(entry, k)",
    "f(getattr(x, 'y')._base)",
])
def test_the_lint_catches_a_planted_name(source):
    assert _named(ast.parse(source)) == [1]


def test_the_lint_passes_the_public_surface_and_other_names():
    source = ("tokens = preds.table.draw([preds.row[i] for i in idx], cfg.temperature, rng)\n"
              "row = table.row(r)\n"
              "v = table.at(rows, cols)\n"
              "block_index = step_index = chunk = 0\n"
              "base, diff, index = 1, 2, 3\n"
              "table.ids[key] = table.add(probs)\n"
              "from .core import RowTable\n"
              "def decode_block(chunk_index): ...\n")
    assert _named(ast.parse(source)) == []
