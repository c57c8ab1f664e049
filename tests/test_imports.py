"""Every name a module imports is used in it.

`__init__.py` is left out: its imports are the package's public re-exports.
A name counts as used if it occurs as a name in the module, also inside an
annotation written as a string.
"""
import ast
from importlib import resources

import pytest

MODULES = sorted(
    p.name for p in resources.files("nafree").iterdir()
    if p.name.endswith(".py") and p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((resources.files("nafree") / module).read_text())
    assert sorted(_imported(tree) - _used(tree)) == []
