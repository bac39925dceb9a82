"""The row table's byte budget is defined, charged and checked in ``core``.

``ROW_TABLE_BYTES`` is every row table's one bound, and ``MAX_VOCAB_SIZE``,
the widest vocab whose one row fits that budget, is the bound ``Vocab``
refuses a size past. A second assignment anywhere else would be a second
bound that can drift from the one ``Vocab`` checks, so no ``blockdec``
module but ``core`` may assign either name; reading ``MAX_VOCAB_SIZE`` is
fine. The budget decision lives in ``RowTable``: no other module reads
``ROW_TABLE_BYTES`` or ``ENTRY_BYTES`` (imports included), or stores to an
``nbytes`` attribute, so no module keeps a charge or a room check of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blockdec"
MODULES = sorted(SRC.glob("*.py"))
BOUNDS = ("ROW_TABLE_BYTES", "MAX_VOCAB_SIZE")
CHARGES = ("ROW_TABLE_BYTES", "ENTRY_BYTES")


def _assigned(tree: ast.AST, name: str) -> list[int]:
    """Lines that store to ``name`` as a name or an attribute (``core.name = ...``),
    by any assignment: plain, annotated, augmented, unpacked or a loop target."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(getattr(node, "ctx", None), ast.Store)
                  and name in (getattr(node, "id", None), getattr(node, "attr", None)))


def _read(tree: ast.AST, name: str) -> list[int]:
    """Lines that load ``name`` as a name or an attribute (``core.name``), or import it."""
    loads = [node.lineno for node in ast.walk(tree) if isinstance(getattr(node, "ctx", None), ast.Load)
             and name in (getattr(node, "id", None), getattr(node, "attr", None))]
    imports = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and any(alias.name == name for alias in node.names)]
    return sorted(loads + imports)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "denoisers.py", "experiment.py"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_no_module_outside_core_assigns_a_bound(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = {name: _assigned(tree, name) for name in BOUNDS}
    assert not any(lines.values()), f"{path.name} assigns a row bound: {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_no_module_outside_core_reads_the_budget_or_charges_a_table(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = {name: _read(tree, name) for name in CHARGES}
    assert not any(lines.values()), f"{path.name} reads a row table's budget: {lines}"
    assert not _assigned(tree, "nbytes"), f"{path.name} stores to nbytes: {_assigned(tree, 'nbytes')}"


def test_core_assigns_each_bound_once():
    tree = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    assert [len(_assigned(tree, name)) for name in BOUNDS] == [1, 1]


def test_the_lint_sees_each_kind_of_assignment():
    source = """
from .core import MAX_VOCAB_SIZE, ROW_TABLE_BYTES
limit = MAX_VOCAB_SIZE + ROW_TABLE_BYTES
ROW_TABLE_BYTES = 1 << 20
MAX_VOCAB_SIZE: int = 7
MAX_VOCAB_SIZE += 1
core.ROW_TABLE_BYTES = 3
first, MAX_VOCAB_SIZE = 1, 2
for ROW_TABLE_BYTES in range(2): ...
print(core.MAX_VOCAB_SIZE, f(ROW_TABLE_BYTES=4))
"""
    tree = ast.parse(source)
    assert _assigned(tree, "ROW_TABLE_BYTES") == [4, 7, 9]
    assert _assigned(tree, "MAX_VOCAB_SIZE") == [5, 6, 8]


def test_the_lint_sees_each_kind_of_read_and_charge():
    source = """
from .core import ENTRY_BYTES as entry, RowTable
from .core import ROW_TABLE_BYTES
room = core.ROW_TABLE_BYTES - table.nbytes
table.nbytes += 8
table.nbytes = 0
f(ENTRY_BYTES)
first, table.nbytes = 1, 2
print(nbytes, ROW_TABLE_BYTES_OTHER, core.ENTRY_BYTES_MORE, f(ENTRY_BYTES=4))
"""
    tree = ast.parse(source)
    assert _read(tree, "ROW_TABLE_BYTES") == [3, 4]
    assert _read(tree, "ENTRY_BYTES") == [2, 7]
    assert _assigned(tree, "nbytes") == [5, 6, 8]
