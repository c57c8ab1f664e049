"""Ultra-metric spaces, partitions and the pseudometric combination."""
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import make_space, split_space
from corpus import VALUES, corpus, random_ultrametric
from nafree.errors import InputError, PreconditionError, Violation
from nafree.finite_groups import FiniteGroupTable, SeminormTable
from nafree.oracles import ball_partition_scan
from nafree.spaces import (
    Partition,
    PartitionChain,
    UltraMetricSpace,
    ball_chain,
    ball_partition,
    combine_pseudometrics,
    extend_with_zero,
    strict_ball_partition,
    validate_ultrametric,
)


def test_validate_isosceles_ok():
    rows = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    assert validate_ultrametric(rows) is None


def test_validate_strong_triangle_violation():
    rows = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
    bad = validate_ultrametric(rows)
    assert bad is not None
    assert bad.kind == "strong_triangle"
    assert bad.points == (0, 1, 2)


def test_validate_degenerate_point():
    assert validate_ultrametric([[0]]) is None


def test_validate_symmetry_and_diagonal():
    assert validate_ultrametric([[0, 1], [2, 0]]).kind == "symmetry"
    assert validate_ultrametric([[1]]).kind == "diagonal"
    assert validate_ultrametric([[0, 0], [0, 0]]).kind == "positivity"


def test_validate_structural_errors():
    with pytest.raises(InputError):
        validate_ultrametric([[0, 1], [1, 0], [1, 1]])
    with pytest.raises(InputError):
        validate_ultrametric([[0, -1], [-1, 0]])
    with pytest.raises(InputError, match="malformed matrix"):
        validate_ultrametric([[0, 1], 5])
    with pytest.raises(InputError, match="malformed matrix"):
        combine_pseudometrics([[[0, 1], 5]])


@pytest.mark.parametrize(
    "build, argument, got",
    [
        (lambda: SeminormTable(FiniteGroupTable.cyclic(2), 5), "value", "5"),
        (lambda: UltraMetricSpace(((0, 1), (1, 0)), names=5), "names", "5"),
        (lambda: PartitionChain(5), "levels", "5"),
        # iterable, but with no order of their own, or split into characters
        (lambda: UltraMetricSpace(((0, 1), (1, 0)), names={"p", "q"}), "names", "{"),
        (lambda: UltraMetricSpace(((0, 1), (1, 0)), names="pq"), "names", "'pq'"),
        (lambda: SeminormTable(FiniteGroupTable.cyclic(2), (v for v in (0, 1))), "value", "<generator"),
        (lambda: PartitionChain({1: Partition.indiscrete(2)}), "levels", "{"),
    ],
)
def test_constructor_names_an_argument_that_is_not_a_list_or_tuple(build, argument, got):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value).startswith(f"{argument} must be a list or tuple, got {got}")


TWO = Partition.indiscrete(2)


@pytest.mark.parametrize(
    "levels, message",
    [
        # before, a chain whose partition is the int 5
        (((1, 5),), "level 0 must be a threshold and a Partition, got (1, 5)"),
        # before, an AttributeError: 'int' object has no attribute 'refines'
        (((1, 5), (Fraction(1, 2), 6)), "level 0 must be a threshold and a Partition, got (1, 5)"),
        (((1, TWO), (Fraction(1, 2), 6)),
         "level 1 must be a threshold and a Partition, got (Fraction(1, 2), 6)"),
        # before, a ValueError or a TypeError from unpacking
        (((1,),), "level 0 must be a threshold and a Partition, got (1,)"),
        (((1, TWO, 3),), "level 0 must be a threshold and a Partition, got (1, Partition("),
        ((5,), "level 0 must be a list or tuple, got 5"),
    ],
)
def test_chain_names_a_level_that_is_not_a_threshold_and_a_partition(levels, message):
    with pytest.raises(InputError) as info:
        PartitionChain(levels)
    assert str(info.value).startswith(message)


def test_space_rejects_reserved_zero_name():
    with pytest.raises(InputError):
        make_space([[0]], names=("0",))


def test_a_row_of_mixed_values_reads_every_entry():
    # rows of Fractions alone are kept as they are; any other row is read
    # entry by entry, so an int beside a Fraction becomes a Fraction
    sp = UltraMetricSpace(((0, Fraction(1, 2)), (Fraction(1, 2), "0")))
    assert [type(v) for row in sp.dist for v in row] == [Fraction] * 4
    assert sp.rank == ((0, 1), (1, 0))
    with pytest.raises(InputError, match=r"^not a rational: True$"):
        UltraMetricSpace(((Fraction(0), True), (True, Fraction(0))))


@pytest.mark.parametrize("names, message", [
    (("a", "a"), "duplicate point names"),
    ((1, 2), "point names must be strings"),
    ((["a"], "b"), "point names must be strings"),  # unhashable, refused before the index
    ((), "name table does not match matrix size"),  # before, read as the names x0, x1
])
def test_space_refuses_a_bad_name_table(names, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        UltraMetricSpace(((0, 1), (1, 0)), names)


def test_index_answers_every_name():
    sp = random_ultrametric(random.Random(64), 64)
    assert [sp.index(name) for name in sp.names] == list(range(64))


def test_nameless_space_gets_default_names():
    sp = UltraMetricSpace(((0, 1), (1, 0)))
    assert sp.names == ("x0", "x1")
    assert sp.index("x1") == 1


def test_a_space_without_points_is_refused():
    for names in ((), None):
        with pytest.raises(InputError, match="^the space has no points$"):
            UltraMetricSpace((), names)


def test_extend_with_zero_small_distance():
    sp = make_space([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], names=("a", "b"))
    ext = extend_with_zero(sp)
    assert ext.d(0, ext.zero) == 1
    assert ext.d(1, ext.zero) == 1


def test_extend_with_zero_large_distance():
    sp = make_space([[0, 3], [3, 0]], names=("a", "b"))
    ext = extend_with_zero(sp)
    assert ext.d(0, ext.zero) == 1
    assert ext.d(1, ext.zero) == 3


def test_extend_with_zero_singleton():
    ext = extend_with_zero(make_space([[0]]))
    assert ext.d(0, ext.zero) == 1


def test_extend_with_zero_always_valid():
    rng = random.Random(7)
    for _ in range(40):
        sp = random_ultrametric(rng, rng.randint(1, 6))
        x0 = rng.randrange(sp.size)
        ext = extend_with_zero(replace(sp, basepoint=x0))
        assert validate_ultrametric(ext.dist) is None


def test_extend_with_zero_is_ultrametric_at_every_basepoint():
    # extend_with_zero does not re-check its matrix; this pins that it need not
    for sp in corpus(seed=2024, count=120):
        for x0 in range(sp.size):
            assert validate_ultrametric(extend_with_zero(replace(sp, basepoint=x0)).dist) is None


def test_extend_with_zero_bad_basepoint():
    with pytest.raises(InputError, match=r"^basepoint 5 outside 0\.\.0$"):
        extend_with_zero(replace(make_space([[0]]), basepoint=5))
    # True and 1.0 compare equal to the point 1 of a two-point space
    for bad in (True, 1.0):
        with pytest.raises(InputError, match=rf"^basepoint {bad} outside 0\.\.1$"):
            extend_with_zero(replace(make_space([[0, 1], [1, 0]]), basepoint=bad))


def test_ball_partition_split_space():
    sp = split_space()
    assert ball_partition(sp, 1).blocks == (frozenset({0, 1}), frozenset({2, 3}))
    assert ball_partition(sp, 2).blocks == (frozenset({0, 1, 2, 3}),)
    assert ball_partition(sp, 0) == Partition.discrete(4)


def test_ball_partition_negative_radius():
    with pytest.raises(PreconditionError):
        ball_partition(split_space(), -1)


def test_strict_ball_partition():
    sp = split_space()
    assert strict_ball_partition(sp, 1) == Partition.discrete(4)
    assert strict_ball_partition(sp, Fraction(3, 2)).blocks == (
        frozenset({0, 1}),
        frozenset({2, 3}),
    )


def test_ball_partition_refinement_monotone():
    for sp in corpus(seed=11, count=25, max_size=6):
        vals = sp.values() + [Fraction(0)]
        for r1, r2 in itertools.combinations(sorted(vals), 2):
            assert ball_partition(sp, r1).refines(ball_partition(sp, r2))


def test_ball_partition_plateau_between_values():
    for sp in corpus(seed=13, count=15, max_size=6):
        vals = sorted(set(sp.values()))
        for lo, hi in zip(vals, vals[1:]):
            mid = (lo + hi) / 2
            assert ball_partition(sp, mid) == ball_partition(sp, lo)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 9, 16, 33, 64])
def test_balls_read_off_the_spanning_tree_equal_the_pairwise_scan(size):
    # heavy ties (five values, two, one) make many spanning trees; any of
    # them gives the balls, and the zero extension adds a root edge
    rng = random.Random(size)
    spaces = []
    for values in (VALUES, VALUES[1:3], VALUES[2:3]):
        sp = random_ultrametric(rng, size, values)
        spaces.append(sp)
        for x0 in rng.sample(range(size), min(size, 2)):
            ext = extend_with_zero(replace(sp, basepoint=x0))
            spaces.append(UltraMetricSpace(ext.dist, sp.names + ("z",)))
    for sp in spaces:
        n = sp.size
        grid = [Fraction(0)] + sorted({sp.d(p, q) for p in range(n) for q in range(n) if p != q})
        mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
        for r in grid + mids + [grid[-1] + 1]:
            assert ball_partition(sp, r) == ball_partition_scan(sp.dist, r)
            if r > 0:
                assert strict_ball_partition(sp, r) == ball_partition_scan(sp.dist, r, strict=True)
        assert ball_chain(sp).levels == tuple((v, ball_partition_scan(sp.dist, v)) for v in reversed(grid))


def test_ball_chain_levels_decrease_and_end_discrete():
    sp = split_space()
    chain = ball_chain(sp)
    thresholds = [t for t, _ in chain]
    assert thresholds == sorted(thresholds, reverse=True)
    assert chain.partitions[-1] == Partition.discrete(sp.size)


def test_partition_invalid_blocks():
    with pytest.raises(InputError):
        Partition((frozenset({0, 1}), frozenset({1, 2})), 3)
    with pytest.raises(InputError):
        Partition((frozenset({0}),), 2)
    for blocks in ((frozenset(),), (frozenset({0}), frozenset())):
        with pytest.raises(Violation, match="^empty block$"):
            Partition(blocks, 1)
    # the ground is a non-negative int: 1.5 and True are not read as 1
    for build in (
        lambda: Partition.discrete(-1),
        lambda: Partition((frozenset({0}),), 1.5),
        lambda: Partition((frozenset({0}),), True),
        lambda: Partition((), "0"),
    ):
        with pytest.raises(InputError, match=r"^ground .* is not a non-negative int$"):
            build()
    assert Partition.discrete(0) == Partition((), 0)


def test_partition_refines_and_separates():
    fine = Partition.discrete(3)
    coarse = Partition.indiscrete(3)
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert fine.separates({0, 1, 2})
    assert not coarse.separates({0, 1})


def test_separating_level_is_the_coarsest():
    chain = ball_chain(split_space())  # thresholds 2, 1, 0
    assert chain.separating_level({0, 2}) == chain.levels[1][1]
    assert chain.separating_level({0, 1}) == chain.levels[2][1]
    assert chain.separating_level({0}) == chain.levels[0][1]
    assert PartitionChain(((Fraction(1), Partition.indiscrete(2)),)).separating_level({0, 1}) is None


def test_partition_chain_validation():
    p = Partition.indiscrete(2)
    d = Partition.discrete(2)
    with pytest.raises(InputError):
        PartitionChain(((Fraction(1), p), (Fraction(2), d)))
    with pytest.raises(InputError):
        PartitionChain(((Fraction(2), d), (Fraction(1), p)))
    PartitionChain(((Fraction(2), p), (Fraction(1), d)))


def test_combine_single_halves():
    d1 = [[0, 1], [1, 0]]
    out = combine_pseudometrics([d1])
    assert out.dist[0][1] == Fraction(1, 2)
    assert out.separates


def test_combine_two_discrete():
    d = [[0, 1], [1, 0]]
    out = combine_pseudometrics([d, d])
    assert out.dist[0][1] == Fraction(1, 2)


def test_combine_jointly_separating():
    d1 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]  # vanishes on (0,2)
    d2 = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]  # vanishes on (0,1)
    out = combine_pseudometrics([d1, d2])
    assert out.separates
    assert validate_ultrametric(out.dist) is None


def test_combine_separation_failure_reported():
    d = [[0, 0, 1], [0, 0, 1], [1, 1, 0]]
    out = combine_pseudometrics([d])
    assert not out.separates


def test_combine_rejects_strong_triangle_failure():
    d = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]  # d(0,2) = 1 > max(d(0,1), d(1,2)) = 0
    with pytest.raises(InputError, match=r"^not an ultra-pseudometric: strong_triangle at \(0, 1, 2\)"):
        combine_pseudometrics([d])


@pytest.mark.parametrize("member, message", [
    ([[1, 1], [1, 0]], "not an ultra-pseudometric: diagonal at (0,): d(0,0) = 1 != 0"),
    ([[0, 1], ["1/2", 0]], "not an ultra-pseudometric: symmetry at (0, 1): d(0,1) = 1 != 1/2 = d(1,0)"),
    ([[0, "1/2", 1], ["1/2", 0, "1/4"], [1, "1/4", 0]],
     "not an ultra-pseudometric: strong_triangle at (0, 1, 2): d(0,2) = 1 > max(d(0,1), d(1,2)) = 1/2"),
    ([[0, 1], [1, 0, 1]], "matrix is not square"),
    ([[0, -1], [-1, 0]], "negative entry at (0,1)"),
    ([[0, 0, 2], [0, 0, 2], [2, 2, 0]], "entry (0,2) = 2 above 1"),
])
def test_combine_names_each_fault(member, message):
    with pytest.raises(InputError) as info:
        combine_pseudometrics([member])
    assert str(info.value) == message


def test_combine_rejects_unbounded_entries():
    with pytest.raises(InputError):
        combine_pseudometrics([[[0, 2], [2, 0]]])
