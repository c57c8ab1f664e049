"""Finite group tables, seminorms and isometric actions."""
import itertools
import random
import re
import time
from fractions import Fraction

import pytest

from conftest import make_space, split_space
from corpus import random_ultrametric
from nafree.errors import InputError, PreconditionError, Violation
from nafree.finite_groups import (
    FiniteGroupTable,
    IsometricAction,
    SeminormTable,
    metric_from_seminorm,
    seminorm_from_action,
    seminorm_from_subgroup,
    subgroup_from_seminorm,
)


def test_cyclic_group_axioms():
    g = FiniteGroupTable.cyclic(4)
    assert g.order == 4
    assert g.identity == 0
    assert g.inv[1] == 3
    assert not g.is_boolean()
    assert FiniteGroupTable.boolean_power(2).is_boolean()


def test_non_associative_table_rejected():
    # mul[a][b] = a (right projection) has no two-sided identity
    with pytest.raises(InputError):
        FiniteGroupTable(((0, 0), (1, 1)))


def _associative(mul):
    """The definition, over every triple: the reference for Light's test."""
    n = len(mul)
    return all(
        mul[mul[a][b]][c] == mul[a][mul[b][c]] for a, b, c in itertools.product(range(n), repeat=3)
    )


def _genuine_failure(mul, message):
    a, b, c = map(int, re.fullmatch(r"associativity fails at \((\d+),(\d+),(\d+)\)", message).groups())
    return mul[mul[a][b]][c] != mul[a][mul[b][c]]


def test_non_associative_loop_rejected_with_a_genuine_triple():
    # a Latin square with identity 0 and every element its own inverse: a
    # loop of order 5, which no group is (Z_5 has no element of order 2)
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    with pytest.raises(InputError, match="associativity fails at") as info:
        FiniteGroupTable(loop)
    assert _genuine_failure(loop, str(info.value))


def test_associativity_check_matches_every_triple():
    # group tables of order 1..8 with up to three entries swapped away from
    # the identity row and column: accepted exactly when every triple holds
    rng = random.Random(5)
    groups = [FiniteGroupTable.cyclic(k).mul for k in range(1, 9)]
    groups += [FiniteGroupTable.boolean_power(k).mul for k in (2, 3)]
    groups.append(FiniteGroupTable.from_permutations([(1, 0, 2), (0, 2, 1)])[0].mul)
    reached = rejected = 0
    for _ in range(3000):
        mul = [list(row) for row in rng.choice(groups)]
        n = len(mul)
        for _ in range(rng.randint(0, 3) if n > 1 else 0):
            a, b, c, d = (rng.randrange(1, n) for _ in range(4))
            mul[a][b], mul[c][d] = mul[c][d], mul[a][b]
        mul = tuple(tuple(row) for row in mul)
        try:
            FiniteGroupTable(mul)
        except InputError as exc:
            if not str(exc).startswith("associativity"):
                continue  # no identity or no inverses: decided before associativity
            assert not _associative(mul) and _genuine_failure(mul, str(exc))
            rejected += 1
        else:
            assert _associative(mul)
        reached += 1
    assert reached > 1500 and rejected > 300


def test_symmetric_group_s6_builds_quickly():
    # a transposition and a 6-cycle generate all 720 permutations
    start = time.perf_counter()
    table, elems = FiniteGroupTable.from_permutations([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])
    assert time.perf_counter() - start < 2
    assert elems == tuple(sorted(itertools.permutations(range(6))))
    pos = {e: i for i, e in enumerate(elems)}
    assert table.mul == tuple(
        tuple(pos[tuple(p[q[x]] for x in range(6))] for q in elems) for p in elems
    )


def test_from_permutations_closes():
    table, elems = FiniteGroupTable.from_permutations([(1, 0, 2), (0, 2, 1)])
    assert table.order == 6  # the two transpositions generate S_3
    assert elems[table.identity] == (0, 1, 2)


def test_seminorm_from_subgroup_z4():
    g = FiniteGroupTable.cyclic(4)
    p = seminorm_from_subgroup(g, {0, 2})
    assert p.value == (0, 1, 0, 1)
    assert seminorm_from_subgroup(g, range(4)).value == (0, 0, 0, 0)
    assert seminorm_from_subgroup(g, {0}).value == (0, 1, 1, 1)


def test_seminorm_from_non_subgroup_rejected():
    with pytest.raises(PreconditionError):
        seminorm_from_subgroup(FiniteGroupTable.cyclic(4), {0, 1})


def test_subgroup_from_seminorm_levels():
    g = FiniteGroupTable.cyclic(4)
    p = seminorm_from_subgroup(g, {0, 2})
    assert subgroup_from_seminorm(p, 1).elements == frozenset({0, 2})
    assert subgroup_from_seminorm(p, 5).elements == frozenset(range(4))
    norm = seminorm_from_subgroup(g, {0})
    assert subgroup_from_seminorm(norm, Fraction(1, 2)).elements == frozenset({0})
    with pytest.raises(PreconditionError):
        subgroup_from_seminorm(p, 0)


def test_subgroup_seminorm_round_trip():
    g = FiniteGroupTable.cyclic(6)
    for h in ({0}, {0, 3}, {0, 2, 4}, set(range(6))):
        p = seminorm_from_subgroup(g, h)
        assert subgroup_from_seminorm(p, 1).elements == frozenset(h)


def test_subgroup_from_abelian_seminorm_is_normal():
    g = FiniteGroupTable.cyclic(4)
    p = seminorm_from_subgroup(g, {0, 2})
    assert p.is_invariant()
    assert subgroup_from_seminorm(p, 1).is_normal


def test_seminorm_table_validation():
    g = FiniteGroupTable.cyclic(2)
    with pytest.raises(InputError):
        SeminormTable(g, (1, 0))  # p(e) != 0
    g4 = FiniteGroupTable.cyclic(4)
    with pytest.raises(InputError):
        SeminormTable(g4, (0, 1, 1, 2))  # p(3) != p(3^-1)
    with pytest.raises(InputError):
        SeminormTable(g4, (0, 1, 3, 1))  # p(1+1) > max


def _swap_action():
    sp = make_space([[0, 1], [1, 0]], names=("p", "q"))
    g = FiniteGroupTable.cyclic(2)
    return IsometricAction(g, sp, ((0, 1), (1, 0)))


def _swap_within():
    """The bundled workspace's `swap_within`: two elements over four points."""
    return IsometricAction(FiniteGroupTable.cyclic(2), split_space(), ((0, 1, 2, 3), (1, 0, 3, 2)))


@pytest.mark.parametrize("g, x, message", [
    (-1, 0, "element -1 outside 0..1"),  # before, read as the last element
    (True, 0, "element True outside 0..1"),  # before, read as element 1
    (2, 0, "element 2 outside 0..1"),  # before, a bare IndexError
    (0, 4, "point 4 outside 0..3"),
    (0, -1, "point -1 outside 0..3"),
    (0, 1.0, "point 1.0 outside 0..3"),
])
def test_apply_refuses_an_element_or_point_outside_the_action(g, x, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        _swap_within().apply(g, x)


@pytest.mark.parametrize("x0", [True, 1.0, -1, 4])
def test_seminorm_from_action_refuses_a_point_outside_the_space(x0):
    # before, True was read as point 1 and 1.0 raised a bare TypeError
    with pytest.raises(InputError, match=f"^point {re.escape(repr(x0))} outside 0..3$"):
        seminorm_from_action(_swap_within(), x0)


def test_seminorm_from_action_swap():
    act = _swap_action()
    p = seminorm_from_action(act, 0)
    assert p.value == (0, 1)


def test_seminorm_from_action_fixing_basepoint():
    sp = split_space()
    g = FiniteGroupTable.cyclic(2)
    act = IsometricAction(g, sp, ((0, 1, 2, 3), (0, 1, 3, 2)))  # fixes p, q
    assert seminorm_from_action(act, 0).value == (0, 0)


def test_trivial_action_gives_zero_seminorm():
    sp = split_space()
    g = FiniteGroupTable.cyclic(1)
    act = IsometricAction(g, sp, ((0, 1, 2, 3),))
    assert seminorm_from_action(act, 2).value == (0,)


def test_non_isometric_action_rejected():
    sp = make_space([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    g = FiniteGroupTable.cyclic(2)
    with pytest.raises(Violation, match=r"^element 1 is not an isometry: moves pair \(0,1\)$"):
        IsometricAction(g, sp, ((0, 1, 2), (0, 2, 1)))  # d(0,1)=1 but d(0,2)=2


def test_action_table_group_consistency_checked():
    sp = make_space([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    g = FiniteGroupTable.cyclic(2)
    with pytest.raises(InputError):
        IsometricAction(g, sp, ((0, 1, 2), (1, 2, 0)))  # 3-cycle is not order 2


def test_metric_from_seminorm_discrete():
    g = FiniteGroupTable.cyclic(2)
    out = metric_from_seminorm(SeminormTable(g, (0, 1)))
    assert out.is_metric
    assert out.dist == ((0, 1), (1, 0))


def test_metric_from_seminorm_pseudometric_flagged():
    g = FiniteGroupTable.cyclic(4)
    out = metric_from_seminorm(SeminormTable(g, (0, 1, 0, 1)))
    assert not out.is_metric
    assert out.dist[0][2] == 0


def test_metric_from_seminorm_invariance_and_restriction():
    g = FiniteGroupTable.cyclic(6)
    p = seminorm_from_subgroup(g, {0, 3})
    out = metric_from_seminorm(p)
    e = g.identity
    for x in range(g.order):
        assert out.dist[e][x] == p.value[x]
    for a, x, y in itertools.product(range(g.order), repeat=3):
        assert out.dist[g.op(a, x)][g.op(a, y)] == out.dist[x][y]


def test_action_consistency_is_checked_at_every_generator():
    # Z2 x Z2 = {e, a, b, ab} picks generators a and b; acting by two
    # transpositions that do not commute, with ab acting as b after a, agrees
    # with the table for products by a but not for products by b
    sp = make_space([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    g = FiniteGroupTable.boolean_power(2)
    assert g.generators == (1, 2)
    swap01, swap12 = (1, 0, 2), (0, 2, 1)
    ab = tuple(swap12[swap01[x]] for x in range(3))
    with pytest.raises(InputError, match=r"inconsistent with group table at \(\d+,2,\d+\)"):
        IsometricAction(g, sp, ((0, 1, 2), swap01, swap12, ab))


def _action_faults(group, space, tbl):
    """The first non-isometric element and the first inconsistent triple, by
    the definitions over every element, pair and point: the reference for
    the generator checks of IsometricAction."""
    n = space.size
    iso = next((f"element {a} is not an isometry: moves pair ({x},{y})"
                for a in range(group.order) for x, y in itertools.combinations(range(n), 2)
                if space.d(tbl[a][x], tbl[a][y]) != space.d(x, y)), None)
    con = next((f"action inconsistent with group table at ({a},{b},{x})"
                for a, b in itertools.product(range(group.order), repeat=2) for x in range(n)
                if tbl[group.op(a, b)][x] != tbl[a][tbl[b][x]]), None)
    return iso, con


def _genuine_action_fault(group, space, tbl, message):
    found = re.fullmatch(r"element (\d+) is not an isometry: moves pair \((\d+),(\d+)\)", message)
    if found:
        a, x, y = map(int, found.groups())
        return x < y and space.d(tbl[a][x], tbl[a][y]) != space.d(x, y)
    found = re.fullmatch(r"action inconsistent with group table at \((\d+),(\d+),(\d+)\)", message)
    a, b, x = map(int, found.groups())
    return tbl[group.op(a, b)][x] != tbl[a][tbl[b][x]]


def test_action_checks_match_the_full_scan():
    # groups generated by isometries (or, two times in five, by any
    # permutation) of corpus spaces, with two element rows swapped or one row
    # composed with a transposition: rejected exactly when the full scan
    # finds a fault, and with its message whenever the table is consistent
    rng = random.Random(6)
    seen = {"accepted": 0, "consistent, not an isometry": 0, "inconsistent": 0}
    for _ in range(400):
        space = random_ultrametric(rng, rng.randint(2, 5))
        n = space.size
        perms = list(itertools.permutations(range(n)))
        isometries = [p for p in perms
                      if all(space.d(p[x], p[y]) == space.d(x, y) for x in range(n) for y in range(n))]
        pool = perms if rng.random() < 0.4 else isometries
        group, elems = FiniteGroupTable.from_permutations(rng.sample(pool, min(2, len(pool))))
        tbl = [list(e) for e in elems]
        if group.order > 1 and rng.random() < 0.5:
            a, b = rng.randrange(1, group.order), rng.randrange(1, group.order)
            if rng.random() < 0.5:
                tbl[a], tbl[b] = tbl[b], tbl[a]
            else:
                x, y = rng.sample(range(n), 2)
                tbl[a][x], tbl[a][y] = tbl[a][y], tbl[a][x]
        tbl = tuple(map(tuple, tbl))
        iso, con = _action_faults(group, space, tbl)
        try:
            IsometricAction(group, space, tbl)
        except InputError as exc:
            assert iso or con
            assert _genuine_action_fault(group, space, tbl, str(exc))
            assert (type(exc) is Violation) == ("is not an isometry" in str(exc))
            if con is None:
                assert str(exc) == iso
            seen["inconsistent" if con else "consistent, not an isometry"] += 1
        else:
            assert iso is None and con is None
            seen["accepted"] += 1
    assert min(seen.values()) > 40, seen
