"""One reader for indices: every point, letter, element, subset and image
index goes through `spaces.index`.

Each entry point refuses what only compares equal to an index (`True`,
`1.0`), a string, and an index outside 0..n-1, each with the reader's
message, and accepts 0.  An AST check keeps the reader the one place where
an index's type is checked.
"""
import ast
from importlib import resources

import pytest

from conftest import discrete_dbar, split_space
from nafree.abelian import AbelianWord
from nafree.boolean import BooleanWord
from nafree.duality import universal_extension
from nafree.errors import InputError
from nafree.finite_groups import FiniteGroupTable, IsometricAction
from nafree.freegroup import FreeWord, word_alphabet
from nafree.spaces import Partition, UltraMetricSpace

Z2 = FiniteGroupTable.cyclic(2)
SWAP = IsometricAction(Z2, split_space(), ((0, 1, 2, 3), (1, 0, 3, 2)))

# entry point -> (the index's name in the message, its bound n, a call that
# puts its argument at that index)
ENTRY_POINTS = {
    "BooleanWord point": ("point", 2, lambda v: BooleanWord(frozenset({v}), 2)),
    "AbelianWord point": ("point", 2, lambda v: AbelianWord(((v, 1),), 2)),
    "FreeWord letter": ("letter", 2, lambda v: FreeWord(((v, 1),), 2)),
    "word_alphabet extra": ("letter", 2, lambda v: word_alphabet(FreeWord((), 2), discrete_dbar(2), (v,))),
    "space basepoint": ("basepoint", 4, lambda v: UltraMetricSpace(split_space().dist, basepoint=v)),
    "Partition point": ("point", 2, lambda v: Partition(({v, 1},), 2)),
    "group table entry": ("element", 2, lambda v: FiniteGroupTable(((v, 1), (1, 0)))),
    "action table entry": (
        "point", 4, lambda v: IsometricAction(Z2, split_space(), ((0, 1, 2, 3), (1, v, 3, 2)))
    ),
    "IsometricAction.apply element": ("element", 2, lambda v: SWAP.apply(v, 0)),
    "IsometricAction.apply point": ("point", 4, lambda v: SWAP.apply(0, v)),
    "UniversalExtension.apply": ("subset", 4, lambda v: universal_extension((1, 0), Z2, 2).apply(v)),
    "universal_extension image": ("image", 2, lambda v: universal_extension((v,), Z2, 1)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "bad", [True, 1.0, "0", -1, pytest.param(None, id="n")]  # None stands for the bound n
)
def test_entry_point_refuses_what_is_not_an_index(entry, bad):
    what, n, build = ENTRY_POINTS[entry]
    v = n if bad is None else bad
    with pytest.raises(InputError) as info:
        build(v)
    assert type(info.value) is InputError
    assert str(info.value) == f"{what} {v!r} outside 0..{n - 1}"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_accepts_zero(entry):
    ENTRY_POINTS[entry][2](0)


# the `type(...) is not int` tests in `src` that are not index checks, with
# the reader's own: (module, enclosing function, the test)
NOT_AN_INDEX = {
    ("spaces.py", "index", "type(v) is not int"),
    ("spaces.py", "Partition.__post_init__", "type(self.ground) is not int"),  # a size
    ("abelian.py", "AbelianWord.__post_init__", "type(c) is not int"),  # a coefficient
    ("freegroup.py", "FreeWord.__post_init__", "type(s) is not int"),  # an exponent
}


def _int_type_tests(module: str):
    """(module, enclosing function, test) for each `type(x) is not int`."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (
                isinstance(child, ast.Compare)
                and isinstance(child.left, ast.Call)
                and getattr(child.left.func, "id", None) == "type"
                and any(isinstance(op, ast.IsNot) for op in child.ops)
                and any(getattr(c, "id", None) == "int" for c in child.comparators)
            ):
                found.add((module, scope, ast.unparse(child)))
            walk(child, inner)

    walk(ast.parse((resources.files("nafree") / module).read_text()), "")
    return found


def test_only_the_reader_checks_an_index_type():
    modules = sorted(p.name for p in resources.files("nafree").iterdir() if p.name.endswith(".py"))
    assert set().union(*map(_int_type_tests, modules)) == NOT_AN_INDEX
