"""Finite Stone duality, universal extensions and inverse systems."""
import itertools
from fractions import Fraction

import pytest

from nafree.boolean import BooleanWord
from nafree.duality import (
    Character,
    InverseSystem,
    dual_group,
    evaluation_delta,
    local_base_SPro,
    universal_extension,
)
from nafree.errors import CapExceeded, InputError, PreconditionError
from nafree.finite_groups import FiniteGroupTable
from nafree.freegroup import FreeWord, eps_tilde_membership
from nafree.spaces import Partition, PartitionChain


def test_dual_group_sizes():
    assert len(dual_group(1)) == 2
    assert len(dual_group(3)) == 8
    with pytest.raises(CapExceeded):
        dual_group(20)


def test_zero_character():
    chi0 = Character(0, 3)
    for f in range(8):
        assert chi0(f) == 0


def test_character_group_mirrors_symmetric_difference():
    for s, t in itertools.product(range(8), repeat=2):
        summed = Character(s, 3) + Character(t, 3)
        assert summed.mask == s ^ t
        for f in range(8):
            assert summed(f) == (Character(s, 3)(f) + Character(t, 3)(f)) % 2


def test_evaluation_delta():
    d0 = evaluation_delta(0, 2)
    assert d0(0b01) == 1
    assert d0(0b10) == 0
    with pytest.raises(InputError):
        evaluation_delta(5, 2)


@pytest.mark.parametrize("x", [True, 1.0, "1"])
def test_evaluation_delta_refuses_a_point_that_is_not_an_int(x):
    with pytest.raises(InputError, match="^point .* outside 0..1$"):
        evaluation_delta(x, 2)


def test_delta_spans_dual_group():
    ground = 3
    for s in range(1 << ground):
        acc = Character(0, ground)
        for x in range(ground):
            if s >> x & 1:
                acc = acc + evaluation_delta(x, ground)
        assert acc == Character(s, ground)


def test_universal_extension_examples():
    z2 = FiniteGroupTable.cyclic(2)
    ext = universal_extension((1, 1), z2, 2)
    assert ext.apply(Character(0b11, 2)) == 0
    assert ext.apply(evaluation_delta(0, 2)) == 1
    trivial = universal_extension((0, 0, 0), z2, 3)
    assert all(trivial.apply(Character(s, 3)) == 0 for s in range(8))


def test_universal_extension_identity_case():
    # f = delta itself, viewed through the bitmask isomorphism V* ~ Z2^X
    klein = FiniteGroupTable.boolean_power(2)
    ext = universal_extension((0b01, 0b10), klein, 2)
    for s in range(4):
        assert ext.apply(Character(s, 2)) == s


def test_universal_extension_refuses_a_character_over_another_ground_set():
    ext = universal_extension((1, 1), FiniteGroupTable.cyclic(2), 2)
    for chi in (Character(0b111, 3), Character(0b1, 1)):
        with pytest.raises(PreconditionError, match="^character over another ground set$"):
            ext.apply(chi)


def test_universal_extension_requires_boolean_target():
    with pytest.raises(PreconditionError):
        universal_extension((0, 0), FiniteGroupTable.cyclic(4), 2)


def test_local_base_counts_and_trivial_hom():
    eps = Partition((frozenset({0, 1}), frozenset({2})), 3)
    z2 = FiniteGroupTable.cyclic(2)
    homs = local_base_SPro(eps, z2)
    assert len(homs) == 4  # |Z2|^2 generator assignments
    trivial = next(h for h in homs if all(i == 0 for i in h.generator_images))
    x = FreeWord(((0, 1), (2, 1)), 3)
    assert trivial.contains(x)
    assert all(h.target.order == 2 for h in homs)


def test_kernel_words_lie_in_every_member():
    eps = Partition((frozenset({0, 1}), frozenset({2})), 3)
    z2 = FiniteGroupTable.cyclic(2)
    homs = local_base_SPro(eps, z2)
    words = [
        FreeWord(((0, 1), (1, -1)), 3),
        FreeWord(((2, 1), (0, 1), (1, -1), (2, -1)), 3),
        FreeWord((), 3),
    ]
    for w in words:
        assert eps_tilde_membership(w, eps)
        for h in homs:
            assert h.contains(w)


def test_quotient_hom_refuses_a_word_over_other_blocks():
    eps = Partition((frozenset({0, 1}), frozenset({2})), 3)  # two blocks
    h = local_base_SPro(eps, FiniteGroupTable.cyclic(2))[-1]
    assert h.image_of_block_word(FreeWord(((0, 1), (1, 1)), 2)) == 0
    for word in (FreeWord(((2, 1),), 3), FreeWord(((0, 1),), 1)):
        with pytest.raises(PreconditionError, match="^word is not over the blocks of the quotient$"):
            h.image_of_block_word(word)


def test_local_base_cap():
    eps = Partition.discrete(4)
    with pytest.raises(CapExceeded):
        local_base_SPro(eps, FiniteGroupTable.boolean_power(4))  # 16^4 > LOCAL_BASE_CAP


def _chain():
    coarse = Partition.indiscrete(3)
    mid = Partition((frozenset({0, 1}), frozenset({2})), 3)
    fine = Partition.discrete(3)
    return PartitionChain(
        ((Fraction(2), coarse), (Fraction(1), mid), (Fraction(0), fine))
    )


def test_inverse_system_bonds_and_threads():
    sys = InverseSystem(_chain())
    assert len(sys.chain) == 3
    u = BooleanWord(frozenset({0, 2}), 3)  # element of B(X) itself
    thread = [sys.project_from_base(u, i) for i in range(3)]
    assert sys.thread_check(thread)
    bad = list(thread)
    bad[0] = BooleanWord(frozenset({0}), 1)
    assert not sys.thread_check(bad)


def test_projection_refuses_a_word_over_another_ground_set():
    sys = InverseSystem(_chain())  # over 3 points
    for ground in (2, 5):
        with pytest.raises(PreconditionError, match="^word ground set does not match the chain$"):
            sys.project_from_base(BooleanWord(frozenset({0}), ground), 0)


@pytest.mark.parametrize("i", [-1, 2, True, 1.0])
def test_bond_refuses_a_level_outside_the_chain(i):
    sys = InverseSystem(_chain())  # 3 levels: bonds into levels 0 and 1
    with pytest.raises(InputError, match="^no bond into level .* in a chain of 3 levels$"):
        sys.bond(i, BooleanWord(frozenset({0}), 3))


@pytest.mark.parametrize("i", [-1, 3, True])
def test_projection_refuses_a_level_outside_the_chain(i):
    sys = InverseSystem(_chain())
    with pytest.raises(InputError, match="^level .* outside 0..2$"):
        sys.project_from_base(BooleanWord(frozenset({0}), 3), i)


def test_inverse_system_constant_chain_identity_bonds():
    part = Partition((frozenset({0, 1}), frozenset({2})), 3)
    chain = PartitionChain(((Fraction(2), part), (Fraction(1), part)))
    sys = InverseSystem(chain)
    for mask in range(4):
        u = BooleanWord(frozenset(i for i in range(2) if mask >> i & 1), 2)
        assert sys.bond(0, u) == u
        assert sys.thread_check([u, u])


def test_inverse_system_merge_example():
    sys = InverseSystem(_chain())
    # fine generator {0} maps to the mid block {0,1}, then to the top block
    g = BooleanWord(frozenset({0}), 3)
    mid = sys.bond(1, g)
    assert mid == BooleanWord(frozenset({0}), 2)
    top = sys.bond(0, mid)
    assert top == BooleanWord(frozenset({0}), 1)


def test_skip_bond_equals_composition():
    # the finest level is discrete, so u is also an element of B(X): the
    # composed bonds skip from level 2 to level 0 as the projection does
    sys = InverseSystem(_chain())
    for mask in range(8):
        u = BooleanWord(frozenset(i for i in range(3) if mask >> i & 1), 3)
        assert sys.bond(0, sys.bond(1, u)) == sys.project_from_base(u, 0)
