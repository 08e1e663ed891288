"""Every module-level import of a package module is used by that module.

An import left behind when its last use goes is a relay in waiting; this
keeps refactors from leaving them. ``__init__.py`` is exempt: its imports are
the package's exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "triplehop"
MODULES = sorted(p.name for p in SRC_DIR.glob("*.py") if p.name != "__init__.py")


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
