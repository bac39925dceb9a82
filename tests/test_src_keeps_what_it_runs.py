"""``src/`` keeps only what it runs or exports.

``__init__.py``'s imports are the package's one public-API list. Every other
member of a ``blockdec`` module must be read somewhere in ``src/`` outside its
own definition, or be on ``HELD`` with its reason and the ROADMAP item that
frees it. The members are each top-level function and class, each method and
each class-body ``property(...)``, and each module-level alias binding
(``x = mod.x``).

A top-level function or class counts as read by a name or an attribute of its
name (``clipped(...)``, ``core.validate_config``); a method or property by an
attribute (``table.row(r)``), since a local variable of the same name is not a
read of it. An alias shares its name with what it binds, so it counts as read
only through its own module: a name in that module, or an import from it.
Dunder methods are run by Python itself and are not members.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "blockdec"

HELD = {
    "core.PositionPrediction.from_probs":
        "tests' reference record builder; perfbench counts calls to it (ROADMAP item 10 drops the counter)",
    "denoisers.MarkovDenoiser.distribution":
        "tests read it and perfbench counts it; ROADMAP item 1's quality scorer is its caller",
    "sampling.validate_config": "perfbench counts config checks through it (ROADMAP item 10 frees it)",
    "scheduler.validate_config": "perfbench counts config checks through it (ROADMAP item 10 frees it)",
}

TOP, ATTR, ALIAS = "top", "attr", "alias"


def _sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def _members(module: str, tree: ast.Module) -> list[tuple[str, str, str, ast.AST]]:
    """``(qualified name, name, kind, defining node)`` of every member; the kind is TOP, ATTR or ALIAS."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((f"{module}.{node.name}", node.name, TOP, node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif (isinstance(item, ast.Assign) and isinstance(item.value, ast.Call)
                      and getattr(item.value.func, "id", None) == "property"):
                    names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                else:
                    continue
                out += [(f"{module}.{node.name}.{name}", name, ATTR, item) for name in names
                        if not (name.startswith("__") and name.endswith("__"))]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
            out += [(f"{module}.{t.id}", t.id, ALIAS, node) for t in node.targets if isinstance(t, ast.Name)]
    return out


def _loads(tree: ast.Module) -> list[tuple[str, str, int]]:
    """``(name, TOP or ATTR, line)`` of every name and attribute the module reads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, TOP, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, ATTR, node.lineno))
    return out


def _imports(tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` of every ``from .module import name``."""
    return {(node.module, alias.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and node.level == 1 and node.module for alias in node.names}


def unread(sources: dict[str, str]) -> set[str]:
    """Qualified names of the members of ``sources`` (module name -> text)
    that nothing in them reads and ``__init__`` does not import."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    loads: dict[str, list[tuple[str, str, int]]] = {}  # name -> (module, TOP or ATTR, line) of each read
    for module, tree in trees.items():
        for name, how, line in _loads(tree):
            loads.setdefault(name, []).append((module, how, line))
    imports = set().union(*map(_imports, trees.values()))
    exported = {name for _, name in _imports(trees["__init__"])}
    flagged = set()
    for module, tree in trees.items():
        for qualified, name, kind, node in _members(module, tree):
            reads = [(how, where) for where, how, line in loads.get(name, ())
                     if where != module or not node.lineno <= line <= node.end_lineno]
            if kind == ALIAS:
                read = (module, name) in imports or (TOP, module) in reads
            else:
                read = name in exported or any(kind == TOP or how == ATTR for how, _ in reads)
            if not read:
                flagged.add(qualified)
    return flagged


def _defined(sources: dict[str, str]) -> set[str]:
    return {member[0] for module, text in sources.items() for member in _members(module, ast.parse(text))}


def test_modules_found():
    assert set(_sources()) >= {"__init__", "core", "denoisers", "experiment", "sampling", "scheduler"}


def test_every_member_is_read_exported_or_held():
    extra = unread(_sources()) - set(HELD)
    assert not extra, f"src/ defines members that nothing in src/ reads and __init__ does not export: {sorted(extra)}"


@pytest.mark.parametrize("name", sorted(HELD))
def test_each_held_member_still_exists_and_is_unread(name):
    # Once a member gains a caller or is deleted, its entry goes.
    sources = _sources()
    assert name in _defined(sources), f"{name} is no longer defined: drop it from HELD"
    assert name in unread(sources), f"{name} is now read in src/: drop it from HELD"


def test_no_module_assigns_all():
    # __init__'s imports are the one public-API list; no module keeps a second.
    assigned = {module for module, text in _sources().items() for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)}
    assert not assigned, f"modules that assign __all__: {sorted(assigned)}"


PLANTED = {
    "__init__": "from .lib import exported, Exported\n",
    "lib": '''
from . import core

alias = core.alias
kept_alias = core.kept_alias
imported_alias = core.imported_alias


def exported(): ...


def used(): ...


def unused():
    return unused()


def local_name_only(): ...


class Exported:
    def __init__(self): ...

    def method(self): ...


class Used:
    def used_method(self): ...

    def unused_method(self):
        return self.unused_method()

    def shadowed(self):
        shadowed = 1
        return shadowed

    size = property(lambda self: 1)
    unused_prop = property(lambda self: 2)

    @property
    def decorated(self): ...


def caller(obj):
    local_name_only = used()
    return Used().used_method() + obj.size + obj.decorated + obj.method() + kept_alias()
''',
    "other": '''
from .lib import imported_alias

imported_alias()
alias()
lib.caller(None)
''',
}


def test_the_lint_flags_each_kind_of_unread_member():
    assert unread(PLANTED) == {
        "lib.unused",  # a function that only calls itself
        "lib.local_name_only",  # a function whose name is only a store
        "lib.Used.unused_method",  # a method read only inside its own body
        "lib.Used.shadowed",  # a method whose name is only a local variable
        "lib.Used.unused_prop",  # a property(...) nothing reads
        "lib.alias",  # an alias another module reads a same-named name of, not through lib
    }


def test_the_lint_passes_each_kind_of_read_member():
    # Reading every flagged member once, from outside its definition, clears it.
    reads = "\nlib.unused()\nlib.local_name_only()\nx = y.unused_method, y.shadowed, y.unused_prop\nprint(alias)\n"
    planted = dict(PLANTED, lib=PLANTED["lib"] + reads)
    assert unread(planted) == set()
    assert {"lib.kept_alias", "lib.imported_alias", "lib.Exported.method", "lib.Used.size",
            "lib.Used.decorated", "lib.caller"} <= _defined(planted)
    assert "lib.Exported.__init__" not in _defined(planted)
