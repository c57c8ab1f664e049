"""One reader for exact values: every distance, radius, threshold and
seminorm value goes through `spaces.rational`.

Each entry point refuses what is not exact (`0.5`, `1.0`), what only
compares equal to a number (`True`), and malformed spellings, and reads a
Fraction, an int and a "p/q" string of one value alike.  A string with an
exponent is refused before `Fraction` could build 10**exp.  An AST check
keeps the reader the one place where `Fraction` reads a caller's value.
"""
import ast
import json
import time
from fractions import Fraction
from importlib import resources

import pytest
from click.testing import CliRunner

from conftest import aug, split_space_half
from nafree.boolean import BooleanWord, ball_equals_subgroup
from nafree.cli import main
from nafree.errors import InputError, NafreeError
from nafree.finite_groups import FiniteGroupTable, SeminormTable, subgroup_from_seminorm
from nafree.freegroup import SymmetrizedSpace
from nafree.serialize import format_rational, parse_chain
from nafree.spaces import (
    Partition,
    PartitionChain,
    UltraMetricSpace,
    ball_partition,
    combine_pseudometrics,
    rational,
    strict_ball_partition,
)

Z2 = FiniteGroupTable.cyclic(2)


def _pair(v):
    return ((0, v), (v, 0))


ENTRY_POINTS = {
    "space entry": lambda v: UltraMetricSpace(_pair(v)),
    "symmetrized entry": lambda v: SymmetrizedSpace(1, ((0, v, v), (v, 0, v), (v, v, 0))),
    "ball_partition": lambda v: ball_partition(split_space_half(), v),
    "strict_ball_partition": lambda v: strict_ball_partition(split_space_half(), v),
    "chain threshold": lambda v: PartitionChain(((v, Partition.indiscrete(2)),)),
    "pseudometric entry": lambda v: combine_pseudometrics([_pair(v)]),
    "seminorm value": lambda v: SeminormTable(Z2, (0, v)),
    "seminorm threshold": lambda v: subgroup_from_seminorm(SeminormTable(Z2, (0, 1)), v),
    "ball_equals_subgroup": lambda v: ball_equals_subgroup(
        aug(split_space_half()), v, [BooleanWord(frozenset({0, 1}), 4)]
    ),
    "format_rational": format_rational,
    "parse_chain": lambda v: parse_chain(
        {"levels": [{"threshold": v, "blocks": [["p", "q"], ["r", "s"]]}]}, split_space_half()
    ),
}


def _outcome(f, v):
    """The result of f(v), or the type and text of the error it raised."""
    try:
        return f(v)
    except NafreeError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [0.5, True, 1.0, None, "x", "1/0"])
def test_entry_point_refuses_inexact_values(entry, bad):
    with pytest.raises(InputError):
        ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_reads_every_spelling_alike(entry):
    f = ENTRY_POINTS[entry]
    assert _outcome(f, Fraction(1, 2)) == _outcome(f, "1/2")
    assert _outcome(f, Fraction(1)) == _outcome(f, 1) == _outcome(f, "1")


@pytest.mark.parametrize("spelling", ["1e3", "1E3", "2e-1", "1.5e+2", "1e10000000", " 1e1_0 "])
def test_exponent_spellings_are_refused_before_fraction_reads_them(spelling):
    start = time.perf_counter()
    with pytest.raises(InputError, match="exponents are not read"):
        rational(spelling)
    assert time.perf_counter() - start < 1


def test_strings_without_an_exponent_read_as_before():
    assert rational("1.5") == rational("15/10") == Fraction(3, 2)
    # an "e" that is not an exponent keeps Fraction's message
    with pytest.raises(InputError, match="Invalid literal for Fraction: 'nope'"):
        rational("nope")


def test_an_exponent_in_a_workspace_exits_2_promptly(tmp_path):
    dist = [["0", "1e10000000"], ["1e10000000", "0"]]
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({"space": {"points": ["p", "q"], "dist": dist}}))
    start = time.perf_counter()
    res = CliRunner().invoke(main, ["validate", str(path)])
    assert time.perf_counter() - start < 1
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == "input error: malformed rational '1e10000000': exponents are not read\n"


def _fraction_calls(tree, reader):
    """The `Fraction(...)` calls in `tree` outside the function `reader`."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == reader:
            inside.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Fraction":
                yield node


def _int_literal(node):
    return isinstance(node, ast.Constant) and type(node.value) is int


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in resources.files("nafree").iterdir() if p.name.endswith(".py")),
)
def test_only_the_reader_makes_a_fraction_of_a_value(module):
    source = (resources.files("nafree") / module).read_text()
    reader = "rational" if module == "spaces.py" else None
    bad = [
        f"{module}:{call.lineno}: {ast.unparse(call)}"
        for call in _fraction_calls(ast.parse(source), reader)
        if call.keywords or not all(map(_int_literal, call.args))
    ]
    assert bad == []
