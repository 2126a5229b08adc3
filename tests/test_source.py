"""Static checks of the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "biasaudit"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; ``__init__`` re-exports, so it is left out."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_guard_sees_an_unused_import():
    source = "import numpy as np\nfrom .tabular import Table, label_codes\nnp.zeros(Table)\n"
    assert _unused_imports(source) == ["label_codes (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
