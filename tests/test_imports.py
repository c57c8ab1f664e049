"""Every name a module imports is used in it, and the oracles import no
rule they certify.

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


# the decision procedures the oracles certify, and what an oracle may use:
# the word types, their arithmetic, Partition and the distance matrix type
CERTIFIED = {
    "_image", "eps_tilde_membership", "quotient_hom", "graev_norm_fast",
    "eps_subgroup_membership", "ab_eps_membership", "_ball_classes",
}
ORACLE_MAY_IMPORT = {
    "AbelianWord", "ab_add", "ab_negate", "lh", "BooleanWord", "bool_add", "Partition", "Matrix",
}


def test_oracles_import_no_rule_they_certify():
    # an oracle that called the rule it checks would agree with it by
    # construction
    tree = ast.parse((resources.files("nafree") / "oracles.py").read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nafree")):
            package.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("nafree") for a in node.names)
    assert package.isdisjoint(CERTIFIED)
    assert package <= ORACLE_MAY_IMPORT
