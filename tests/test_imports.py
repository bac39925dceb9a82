"""Every name a ``blockdec`` module imports is used by that module.

``__init__.py`` is skipped: its imports are the package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blockdec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every module-level or nested import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a forward reference such as -> "Vocab"
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "denoisers.py", "experiment.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
