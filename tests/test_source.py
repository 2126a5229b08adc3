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


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_logs(path):
    # the library returns what happened and the CLI alone tells the user
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "logging" not in modules


# top-level definitions that no src module reads, each with the reason it stays
UNREAD_ALLOWED = {
    "forest.train_tree": "perfbench/spans.py wraps it and test_trace_hooks calls it",
    "models.causal_log_joint": "the acceptance tests check the causal model through it",
    "models.confounded_log_joint": "the acceptance tests check the confounded model through it",
    "models.confounded_evidence_quadrature": "the acceptance tests' oracle for the k=1 evidence",
    "models.ppca_evidence_fixed_W": "a test oracle; ROADMAP item 5 moves it after item 8",
}


def _unread_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function and class of ``sources``
    (module name -> source) that no module reads, as a bare name or as an
    attribute of a module of ``sources``.  Click commands are exempt."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in sources):
                read.add(node.attr)
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read
            and not any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                        and d.func.attr == "command" for d in node.decorator_list)]


def test_guard_sees_an_unread_definition():
    sources = {"a": "def helper():\n    return 1\n\n\ndef spare():\n    return helper()\n",
               "b": ("from . import a\n\n\n@main.command()\ndef run():\n    return a.helper()\n"
                     "\n\nclass Unused:\n    '''Calls spare().'''\n")}
    assert _unread_definitions(sources) == ["a.spare", "b.Unused"]


def test_every_src_definition_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert sorted(_unread_definitions(sources)) == sorted(UNREAD_ALLOWED)
