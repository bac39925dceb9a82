"""A decoding config is checked once, when it is built.

``DecodingConfig.__post_init__`` runs ``validate_config`` and raises one
``ConfigError``, so no ``blockdec`` module outside ``core`` may call
``validate_config`` again, and ``ConfigError`` is defined once, in ``core``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blockdec"
MODULES = sorted(SRC.glob("*.py"))


def _calls(tree: ast.Module, name: str) -> list[int]:
    """Lines that call ``name`` directly or as an attribute (``core.name(...)``)."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name))


def _classes(tree: ast.Module, name: str) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == name]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "experiment.py", "sampling.py", "scheduler.py"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_no_module_outside_core_calls_validate_config(path):
    lines = _calls(ast.parse(path.read_text(encoding="utf-8")), "validate_config")
    assert not lines, f"{path.name} re-checks a config at lines {lines}"


def test_config_error_is_defined_once_in_core():
    defined = {p.name: _classes(ast.parse(p.read_text(encoding="utf-8")), "ConfigError") for p in MODULES}
    assert {name: lines for name, lines in defined.items() if lines}.keys() == {"core.py"}
    assert len(defined["core.py"]) == 1


def test_the_lint_sees_each_kind_of_call():
    source = """
from .core import validate_config
from . import core
validate_config = core.validate_config
def start(cfg):
    problems = validate_config(cfg)
    return core.validate_config(cfg) or problems
class ConfigError(ValueError): ...
"""
    tree = ast.parse(source)
    assert _calls(tree, "validate_config") == [6, 7]
    assert _classes(tree, "ConfigError") == [8]
