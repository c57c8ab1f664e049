"""Free abelian group words, length balls and the noncompleteness lemmas."""
import itertools
import random

import pytest

from conftest import all_partitions
import nafree.abelian
from nafree.abelian import (
    AbelianWord,
    ab_add,
    ab_eps_membership,
    ab_negate,
    ball_size,
    bn_avoidance_check,
    bn_interior_witness,
    class_sums,
    enumerate_Bn,
    lh,
)
from nafree.errors import CapExceeded, InputError, PreconditionError
from nafree.oracles import abelian_membership_search
from nafree.spaces import Partition, PartitionChain


def aw(d, ground=3):
    return AbelianWord.from_dict(d, ground)


@pytest.mark.parametrize(
    "coeffs",
    [((0, 1.5),), ((0, True),), ((0, 0.0),), ((1.5, 1),), ((True, 1),), ((2, 1),), ((0, 1), (0, -1))],
)
def test_abelian_word_checks_each_term(coeffs):
    # 1.5 and True are not read as 1, and a zero coefficient is checked too
    with pytest.raises(InputError):
        AbelianWord(coeffs, 2)


def test_ab_add_and_negate():
    assert ab_add(aw({0: 2, 1: -1}), aw({1: 1, 2: -1})) == aw({0: 2, 2: -1})
    u = aw({0: 3, 2: -2})
    assert ab_add(u, ab_negate(u)).is_zero()
    assert ab_add(aw({}), u) == u


def test_ab_add_mismatched_spaces():
    with pytest.raises(PreconditionError):
        ab_add(aw({0: 1}, 2), aw({0: 1}, 3))


def test_lh():
    assert lh(aw({0: 2, 1: -3})) == 5
    assert lh(aw({})) == 0
    assert lh(aw({0: 1})) == 1
    assert lh(ab_negate(aw({0: 2, 1: -3}))) == 5


def test_lh_subadditive():
    rng = random.Random(21)
    for _ in range(100):
        u = aw({p: rng.randint(-3, 3) for p in range(3)})
        v = aw({p: rng.randint(-3, 3) for p in range(3)})
        assert lh(ab_add(u, v)) <= lh(u) + lh(v)


def test_class_sums():
    one_block = Partition((frozenset({0, 1}), frozenset({2}),), 3)
    assert class_sums(aw({0: 1, 1: -1}), one_block) == (0, 0)
    split = Partition((frozenset({0}), frozenset({1}), frozenset({2})), 3)
    assert class_sums(aw({0: 2, 1: -1}), split) == (2, -1, 0)
    whole = Partition.indiscrete(3)
    assert class_sums(aw({0: 1, 1: 1, 2: -2}), whole) == (0,)


def test_membership_examples():
    joined = Partition((frozenset({0, 1}), frozenset({2}),), 3)
    assert ab_eps_membership(aw({0: 1, 1: -1}), joined)
    assert ab_eps_membership(aw({0: 2, 1: -1, 2: -1}), Partition.indiscrete(3))
    split = Partition((frozenset({0}), frozenset({1}), frozenset({2})), 3)
    assert not ab_eps_membership(aw({0: 1, 1: -1}), split)


def test_membership_generators_and_refinement():
    for part in all_partitions(3):
        for block in part.blocks:
            for x, y in itertools.combinations(sorted(block), 2):
                assert ab_eps_membership(aw({x: 1, y: -1}), part)
    # refinement monotone: member of a finer partition stays in a coarser one
    fine = Partition((frozenset({0, 1}), frozenset({2}),), 3)
    coarse = Partition.indiscrete(3)
    for c in itertools.product(range(-2, 3), repeat=3):
        u = aw({p: c[p] for p in range(3)})
        if ab_eps_membership(u, fine):
            assert ab_eps_membership(u, coarse)


def test_membership_agrees_with_bounded_search():
    for part in all_partitions(3):
        for c in itertools.product(range(-2, 3), repeat=3):
            u = aw({p: c[p] for p in range(3)})
            if lh(u) > 4:
                continue
            assert ab_eps_membership(u, part) == abelian_membership_search(u, part)


def test_enumerate_Bn_counts():
    assert [w.coeffs for w in enumerate_Bn(0, 2)] == [()]
    assert len(enumerate_Bn(2, 1)) == 5  # 0, +-a, +-2a
    assert len(enumerate_Bn(1, 2)) == 5  # 0, +-a, +-b
    assert all(lh(w) <= 3 for w in enumerate_Bn(3, 2))
    with pytest.raises(CapExceeded):
        enumerate_Bn(9, 3)


def test_bn_avoidance_check(monkeypatch):
    chain = PartitionChain(((0, Partition.discrete(2)),))
    w = aw({0: 2, 1: 2}, 2)
    checked = []

    def counted(u, eps):
        checked.append(u)
        return ab_eps_membership(u, eps)

    monkeypatch.setattr(nafree.abelian, "ab_eps_membership", counted)
    assert bn_avoidance_check(w, 3, chain) is True
    assert ball_size(3, 2) == len(enumerate_Bn(3, 2))
    assert len(checked) == ball_size(3, 2)  # a passing verdict read every word of B_3


def test_bn_avoidance_preconditions():
    chain = PartitionChain(((0, Partition.discrete(2)),))
    with pytest.raises(PreconditionError):
        bn_avoidance_check(aw({0: 1}, 2), 3, chain)  # lh <= n
    coarse = PartitionChain(((1, Partition.indiscrete(2)),))
    with pytest.raises(PreconditionError):
        bn_avoidance_check(aw({0: 2, 1: 2}, 2), 3, coarse)  # nothing separates


def test_bn_interior_witness_cases():
    block = Partition.indiscrete(2)
    v = bn_interior_witness(aw({}, 2), 2, block)
    assert lh(v) == 2 and ab_eps_membership(v, block)
    # x, y both outside the support
    part = Partition((frozenset({0}), frozenset({1, 2})), 3)
    w = aw({0: 1})
    v = bn_interior_witness(w, 2, part)
    assert lh(ab_add(w, v)) == lh(w) + 2 == 3
    # the pair shares a point with the support; sign must avoid cancellation
    w2 = aw({0: 1}, 2)
    v2 = bn_interior_witness(w2, 2, block)
    assert lh(ab_add(w2, v2)) == lh(w2) + 2


def test_bn_interior_witness_no_generator():
    sing = Partition.discrete(2)
    with pytest.raises(PreconditionError):
        bn_interior_witness(aw({0: 1}, 2), 2, sing)
    inside = Partition.indiscrete(2)
    with pytest.raises(PreconditionError):
        # every multi-point block sits inside supp(w)
        bn_interior_witness(aw({0: 1, 1: 1}, 2), 3, inside)
