"""Static checks of the package source."""

import ast
import itertools
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from biasaudit.advi import FitConfig
from biasaudit.models import CausalModelSpec, ConfoundedModelSpec
from biasaudit.tabular import SchemaConfig

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


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_no_module_calls_np_unique(path):
    # np.unique imports numpy.ma, which no command may load; forest._dense_codes
    # ranks without it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "unique"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")] == []


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


def test_keys_table_restates_no_dataclass_field():
    # cli.KEYS takes the model, fit and schema keys from the fields they fill;
    # only `k` (a flag) and `seed` (the master seed) are written out
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    literal, = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [ast.unparse(target) for target in node.targets] == ["KEYS"]]
    written = {key.value for key in literal.keys if isinstance(key, ast.Constant)}
    field_names = {f.name for cls in (CausalModelSpec, ConfoundedModelSpec, FitConfig, SchemaConfig)
                   for f in fields(cls)}
    assert sorted(written & field_names - {"k", "seed"}) == []


def _step_calls_off_ufuncs(source: str) -> list[str]:
    """Each ``np.<name>(...)`` call on ``fit``'s per-step path, the body of its
    loop up to the statement that holds the stop rule's ``break``, whose name is
    not a ufunc: a ufunc, or a ufunc's method, dispatches in C, where a numpy
    function such as ``np.take`` or ``np.copyto`` first calls a Python-level
    dispatcher."""
    tree = ast.parse(source)
    fit, = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "fit"]
    loop, = [node for node in ast.walk(fit) if isinstance(node, ast.For)]
    step = itertools.takewhile(
        lambda stmt: not any(isinstance(node, ast.Break) for node in ast.walk(stmt)), loop.body)
    found = []
    for node in (node for stmt in step for node in ast.walk(stmt)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func.value if isinstance(node.func.value, ast.Attribute) else node.func
        if (isinstance(func.value, ast.Name) and func.value.id == "np"
                and not isinstance(getattr(np, func.attr), np.ufunc)):
            found.append(f"np.{func.attr} (line {node.lineno})")
    return found


def test_guard_sees_a_numpy_function_on_the_step_path():
    source = ("def fit(x, out):\n    for t in range(3):\n        np.add(x, x, out)\n"
              "        np.logical_and.reduce(out)\n        np.take(x, [0], out=out)\n"
              "        if np.nanmean(x) < 0:\n            break\n    np.copyto(out, x)\n")
    assert _step_calls_off_ufuncs(source) == ["np.take (line 5)"]


def test_fit_steps_call_only_ufuncs():
    # np.take and np.copyto cost 0.2-0.7 us a call more than the array's
    # .take and a slice assignment, which the step uses in their place
    assert _step_calls_off_ufuncs((SRC / "advi.py").read_text(encoding="utf-8")) == []
