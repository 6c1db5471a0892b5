"""Every top-level import of a package module is used in that module.

A deletion can leave an import behind (``import time`` after the last timer
goes); this catches it.  ``__init__.py`` files are skipped: they re-export.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "icvmd"
MODULES = sorted(p for p in [*PACKAGE.glob("*.py"), *PACKAGE.glob("nn/*.py")] if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    assert unused_imports("import time\nimport json\nfrom os import path as p, sep\njson.dumps(sep)\n") == [
        "line 1: time",
        "line 3: p",
    ]


@pytest.mark.parametrize("module", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_every_top_level_import_is_used(module):
    assert unused_imports(module.read_text()) == []
