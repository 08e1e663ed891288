"""Every module-level import of a package module is used by that module,
every module-level private name (``_x``) is read somewhere in the package,
no package module imports another's private name, at any level, and every
``ContextVar`` is created at a module's top level.

An import or a private constant, function or class left behind when its last
use goes is a relay in waiting; this keeps refactors from leaving them.
``__init__.py`` is exempt from the import check: its imports are the
package's exports. A name another module imports is part of its owner's
interface, so it is named as public. A ``ContextVar`` made anywhere else (in
a function or an ``__init__``) is never freed: each context that sets it
keeps it, so the Python docs ask for them at module level.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "triplehop"
MODULES = sorted(p.name for p in SRC_DIR.glob("*.py") if p.name != "__init__.py")
SOURCES = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC_DIR.glob("*.py"))}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_a_name_the_module_never_reads():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom .x import a, b\n"
        "def f(v: a) -> None:\n    return os.path.join(v)\n"
    )
    assert unused_imports(source) == ["js", "b"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((SRC_DIR / module).read_text(encoding="utf-8")) == []


def private_names(source: str) -> list[str]:
    """Names starting with one underscore that the module binds at its top
    level: by assignment, ``def`` or ``class``."""
    names: list[str] = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set[str]:
    """Names the module reads: as a variable, an attribute or an import."""
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_private_names_finds_what_no_module_reads():
    source = (
        "import json as _json\n"
        "_KEPT = 1\n_LEFT: int = 2\n_A, (_B, c) = 3, (4, 5)\n__all__ = []\n"
        "def _used():\n    return _KEPT + _A\n"
        "class _Gone:\n    _attr = 6\n"
        "print(_used(), other._B)\n"
    )
    assert private_names(source) == ["_KEPT", "_LEFT", "_A", "_B", "_used", "_Gone"]
    read = names_read(source) | names_read("from .m import _LEFT")
    assert [name for name in private_names(source) if name not in read] == ["_Gone"]


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_module_private_names_are_read_in_the_package(module):
    read = set().union(*map(names_read, SOURCES.values()))
    assert [name for name in private_names(SOURCES[module]) if name not in read] == []


def private_imports(source: str) -> list[str]:
    """Private names (``_x``) the module imports from a package module, by a
    relative or a ``triplehop`` import, in its body or inside a function."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "triplehop")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def test_private_imports_finds_module_and_function_level_imports():
    source = (
        "from __future__ import annotations\n"
        "from json import _default_decoder\n"
        "from .a import _x, y\nfrom triplehop.b import _z\n"
        "def f():\n    from . import _w\n    from ..c import __all__\n"
    )
    assert private_imports(source) == ["_x", "_z", "_w"]


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_module_imports_no_private_name_of_the_package(module):
    assert private_imports(SOURCES[module]) == []


def nested_context_vars(source: str) -> list[int]:
    """Lines of ``ContextVar(...)`` calls that are not the value of a
    top-level assignment."""
    tree = ast.parse(source)
    top = [node.value for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))]
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "ContextVar" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and not any(node is value for value in top)
    )


def test_nested_context_vars_finds_calls_below_the_top_level():
    source = (
        "import contextvars\nfrom contextvars import ContextVar\n"
        "A = contextvars.ContextVar('a')\nB: ContextVar[int] = ContextVar('b', default=0)\n"
        "class G:\n    C = ContextVar('c')\n"
        "    def __init__(self):\n        self.d = contextvars.ContextVar('d')\n"
        "def f():\n    return ContextVar('e')\n"
        "E = [ContextVar('f')]\n"
    )
    assert nested_context_vars(source) == [6, 8, 10, 11]


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_module_makes_context_vars_at_top_level_only(module):
    assert nested_context_vars(SOURCES[module]) == []
