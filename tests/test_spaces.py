"""Ultra-metric spaces, partitions and the pseudometric combination."""
import itertools
import random
from fractions import Fraction

import pytest

from conftest import make_space, split_space
from corpus import corpus, random_ultrametric
from nafree.errors import InputError, PreconditionError
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


def test_space_rejects_reserved_zero_name():
    with pytest.raises(InputError):
        make_space([[0]], names=("0",))


def test_nameless_space_gets_default_names():
    sp = UltraMetricSpace(((0, 1), (1, 0)))
    assert sp.names == ("x0", "x1")
    assert sp.index("x1") == 1


def test_extend_with_zero_small_distance():
    sp = make_space([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], names=("a", "b"))
    ext = extend_with_zero(sp, 0)
    assert ext.d(0, ext.zero) == 1
    assert ext.d(1, ext.zero) == 1


def test_extend_with_zero_large_distance():
    sp = make_space([[0, 3], [3, 0]], names=("a", "b"))
    ext = extend_with_zero(sp, 0)
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
        ext = extend_with_zero(sp, x0)
        assert validate_ultrametric(ext.dist) is None


def test_extend_with_zero_is_ultrametric_at_every_basepoint():
    # extend_with_zero does not re-check its matrix; this pins that it need not
    for sp in corpus(seed=2024, count=120):
        for x0 in range(sp.size):
            assert validate_ultrametric(extend_with_zero(sp, x0).dist) is None


def test_extend_with_zero_bad_basepoint():
    with pytest.raises(PreconditionError):
        extend_with_zero(make_space([[0]]), 5)


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


def test_partition_refines_and_separates():
    fine = Partition.discrete(3)
    coarse = Partition.indiscrete(3)
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert fine.separates({0, 1, 2})
    assert not coarse.separates({0, 1})


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
    with pytest.raises(InputError, match=r"strong triangle fails at \(0,1,2\)"):
        combine_pseudometrics([d])


def test_combine_rejects_unbounded_entries():
    with pytest.raises(InputError):
        combine_pseudometrics([[[0, 2], [2, 0]]])
