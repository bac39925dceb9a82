"""Every file a ``blockdec`` module writes is created new by one helper.

``experiment._new_file`` unlinks an old output and creates the path afresh.
A truncating write (``open(path, "w")``, ``Path.write_text``) would bring
back the slow truncate of an already flushed file and would rewrite bytes
under a hard link or open handle on the old output, so this lint refuses
any write outside the helper.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blockdec"
MODULES = sorted(SRC.glob("*.py"))
HELPER = ("experiment.py", "_new_file")
WRITE_METHODS = {"write_text", "write_bytes"}


def _mode(call: ast.Call):
    """The mode of an ``open(path, mode)`` or ``path.open(mode)`` call: a
    string, ``"r"`` when absent, or ``None`` when it is not a literal."""
    for kw in call.keywords:
        if kw.arg == "mode":
            node = kw.value
            break
    else:
        at = 1 if isinstance(call.func, ast.Name) else 0
        if len(call.args) <= at:
            return "r"
        node = call.args[at]
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _writes(tree: ast.AST) -> list[tuple[int, str]]:
    """Line and description of every call that writes a file. ``os.open``
    counts too: its flags are not a literal mode."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in WRITE_METHODS:
            found.append((node.lineno, f".{func.attr}()"))
        elif getattr(func, "id", None) == "open" or getattr(func, "attr", None) == "open":
            mode = _mode(node)
            if mode is None or set(mode) & set("wax+"):
                found.append((node.lineno, f"open(..., {mode!r})"))
    return found


def _outside_helper(path: Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    if path.name == HELPER[0]:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == HELPER[1]:
                allowed = {line for line, _ in _writes(node)}
    return [(line, what) for line, what in _writes(tree) if line not in allowed]


def test_the_helper_exists_and_creates_new_files():
    tree = ast.parse((SRC / HELPER[0]).read_text(encoding="utf-8"))
    helpers = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == HELPER[1]]
    assert len(helpers) == 1
    assert [mode for _, mode in _writes(helpers[0])] == ["open(..., 'x')"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_write_outside_the_helper(path):
    stray = _outside_helper(path)
    assert not stray, f"{path.name} writes files outside experiment.{HELPER[1]}: {stray}"


@pytest.mark.parametrize("source", [
    'open(p, "w")',
    'open(p, mode="a", encoding="utf-8")',
    'open(p, m)',
    'Path(p).open("w")',
    'Path(p).write_text("x")',
    'p.write_bytes(b"x")',
    'open(p, "r+")',
    'os.open(p, flags)',
])
def test_the_lint_catches_truncating_writes(source):
    assert _writes(ast.parse(source))


@pytest.mark.parametrize("source", ['open(p)', 'open(p, encoding="utf-8")', 'open(p, "rb")', 'Path(p).open()'])
def test_the_lint_passes_reads(source):
    assert _writes(ast.parse(source)) == []
