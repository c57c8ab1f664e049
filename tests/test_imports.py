"""Every name a module imports is used in it, the oracles import no rule
they certify, the definitions no `src` code names are a known list, and
every name the benchmark traces exists.

`__init__.py` is left out: its imports are the package's public re-exports.
A name counts as used if it occurs as a name in the module, also inside an
annotation written as a string.
"""
import ast
import importlib
from importlib import resources
from pathlib import Path

import pytest

from nafree.finite_groups import FiniteGroupTable, IsometricAction

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
    "_image", "_kernel", "eps_tilde_membership", "quotient_hom", "graev_norm_fast",
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


# Every definition outside `oracles.py` that no `src` code names outside its
# own body: module-level functions and classes, and methods other than
# dunders.  Re-exports from `__init__.py` do not count as names.  The scan
# goes by name, so a definition whose name is also used for something else
# counts as named.  A new entry needs a reason, and a name that gains a
# caller, or goes, leaves the list.
PERFBENCH = "traced or called by perfbench/"
CLICK = "called by click"
SURFACE = {
    "abelian.bn_avoidance_check": "traced by perfbench/, and the oracle of acceptance 18",
    "abelian.bn_interior_witness": "oracle of acceptance 18",
    "boolean.reduce_configuration": "ROADMAP item 8: moves to oracles.py with the brute-force norm",
    "boolean.enumerate_normal_configurations":
        "the reference test_boolean.py::test_bruteforce_certificate_is_the_first_minimum compares against",
    "boolean.closedness_witness": "a paper construct: closedness of the image of X, acceptance 07",
    "boolean.lift_action": "a paper construct: lifted isometric actions, acceptance 10",
    "cli._Boundary.invoke": CLICK,
    "cli.validate": CLICK,
    "cli.report": CLICK,
    "finite_groups.FiniteGroupTable.boolean_power": "a paper construct: Boolean targets, acceptance 09",
    "finite_groups.SeminormTable.is_invariant": "ROADMAP item 6: seminorms on F(X) quotients",
    "finite_groups.seminorm_from_subgroup":
        "a paper construct: seminorms from open subgroups, "
        "test_finite_groups.py::test_subgroup_seminorm_round_trip",
    "finite_groups.subgroup_from_seminorm": "ROADMAP item 5: the stabilizer H of Pestov's test",
    "finite_groups.seminorm_from_action": "ROADMAP item 5: the seminorm p of Pestov's test",
    "finite_groups.metric_from_seminorm":
        "a paper construct: invariant metrics from seminorms, "
        "test_finite_groups.py::test_metric_from_seminorm_invariance_and_restriction",
    "freegroup.eps_tilde_membership": PERFBENCH,
    "freegroup.v_psi_ball": PERFBENCH,
    "freegroup.graev_delta_bruteforce": PERFBENCH,
    "freegroup.project_to_abelian":
        "a paper construct: F(X) onto A(X), test_freegroup.py::test_projections_commute_with_quotient",
    "spaces.Partition.discrete":
        "a paper construct: the finest entourage, test_spaces.py::test_strict_ball_partition",
    "spaces.Partition.indiscrete":
        "a paper construct: the coarsest entourage, the sbaire row's level in acceptance 18",
    "spaces.ball_partition": PERFBENCH,
    "spaces.combine_pseudometrics": "a paper construct: the sup of a pseudometric family, acceptance 13",
}


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub


def _unnamed() -> set[str]:
    trees = {
        p.name[:-3]: ast.parse(p.read_text())
        for p in resources.files("nafree").iterdir() if p.name.endswith(".py")
    }
    uses: dict[str, list[int]] = {}  # name -> the nodes that name it
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)):
                uses.setdefault(n.id if isinstance(n, ast.Name) else n.attr, []).append(id(n))
    out = set()
    for module, tree in trees.items():
        if module == "oracles":
            continue
        for qualname, node in _definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if all(u in inside for u in uses.get(qualname.rsplit(".", 1)[-1], ())):
                out.add(f"{module}.{qualname}")
    return out


def test_definitions_no_src_code_names_are_listed():
    assert sorted(_unnamed()) == sorted(SURFACE)


# The benchmark's tracer wraps these by name; a rename would fail only the
# traced benchmark run.  Read without importing `perfbench/`.
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.skipif(not TRACING.exists(), reason="perfbench/ is absent")
def test_every_traced_name_is_a_callable_of_the_package():
    tree = ast.parse(TRACING.read_text())
    (table,) = (
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    targets = [tuple(e.value for e in row.elts[:2]) for row in table.elts]
    assert targets
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(f"nafree.{module}"), attr, None)), (module, attr)
    # the tracer rebinds the classmethod's function and the class's own __init__
    assert isinstance(FiniteGroupTable.__dict__["from_permutations"], classmethod)
    assert callable(IsometricAction.__dict__["__init__"])
