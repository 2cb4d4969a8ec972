"""Every module-level import in src/quiverqh is read somewhere in its module.

No linter is a dependency of this project, so this scan stands in for the
unused-import check: a name bound by a top-level ``import`` or
``from ... import`` must occur as a ``Name`` (or the root of an
``Attribute`` chain) elsewhere in the module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quiverqh"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(
        "%s (line %d)" % (name, line)
        for name, line in imported.items()
        if name not in used
    )


def test_scan_finds_an_unused_import():
    src = "import os\nimport sys\nfrom typing import Any, List\nx: List = sys.argv\n"
    assert unused_imports(src) == ["Any (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
