"""The mask id is stored once, on ``Vocab``.

A block is a plain token list and every reader takes the mask id from its
denoiser's ``Vocab``. No ``blockdec`` module may declare a dataclass field,
class attribute, instance attribute or function parameter named ``mask_id``;
``Vocab.mask_id`` itself is a property derived from ``size``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blockdec"
MODULES = sorted(SRC.glob("*.py"))
NAME = "mask_id"


def _is_vocab_property(cls: ast.ClassDef, node: ast.stmt) -> bool:
    """``mask_id = property(...)`` in the body of ``class Vocab``."""
    return (cls.name == "Vocab" and isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "property")


def _targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []


def _copies(tree: ast.Module) -> list[str]:
    """Each declaration of ``mask_id`` as a field, attribute or parameter, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (any(isinstance(t, ast.Name) and t.id == NAME for t in _targets(stmt))
                        and not _is_vocab_property(node, stmt)):
                    found.append((stmt.lineno, f"{node.name}.{NAME}"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and arg.arg == NAME:
                    found.append((arg.lineno, f"parameter {NAME} of {getattr(node, 'name', 'lambda')}"))
        if any(isinstance(t, ast.Attribute) and t.attr == NAME for t in _targets(node)):
            found.append((node.lineno, f"attribute .{NAME} assigned"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "denoisers.py", "sampling.py", "noise.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_mask_id_is_stored_only_on_vocab(path):
    copies = _copies(ast.parse(path.read_text(encoding="utf-8")))
    assert not copies, f"{path.name} stores a second mask id: {copies}"


def test_the_lint_sees_each_kind_of_copy():
    source = """
from dataclasses import dataclass
@dataclass
class Block:
    tokens: list
    mask_id: int
class Cached:
    mask_id = 4
def scan(block, mask_id): ...
def init(self, vocab):
    self.mask_id = vocab.mask_id
class Vocab:
    mask_id = property(lambda self: self.size)
"""
    assert [c.split(":")[0] for c in _copies(ast.parse(source))] == [
        "line 6", "line 8", "line 9", "line 11"]
