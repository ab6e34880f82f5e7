"""Package surface: every name a module exports resolves, and every name it imports is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dtcf

# __main__ runs the command line when imported
MODULES = ["dtcf"] + sorted(m.name for m in pkgutil.iter_modules(dtcf.__path__, "dtcf.")
                            if m.name != "dtcf.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and
                any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(Path(dtcf.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_sees_an_unused_name():
    source = "import os\nfrom .tensor import Tensor, matmul\n__all__ = ['matmul']\n"
    assert _unused_imports(source) == ["os (line 1)", "Tensor (line 2)"]
