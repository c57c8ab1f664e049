"""Free Boolean group, configuration calculus and the Graev ultra-norm."""
import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import all_boolean_words, all_partitions, aug, discrete_dbar, make_space, split_space
from corpus import corpus, random_ultrametric
from nafree.abelian import AbelianWord, ab_eps_membership, bn_avoidance_check, bn_interior_witness
from nafree.boolean import (
    BooleanWord,
    Configuration,
    ball_equals_subgroup,
    bool_add,
    closedness_witness,
    enumerate_normal_configurations,
    eps_subgroup_membership,
    graev_norm_bruteforce,
    graev_norm_fast,
    lift_action,
    phi,
    reduce_configuration,
    support,
)
from nafree.errors import CapExceeded, InputError, PreconditionError
from nafree.finite_groups import FiniteGroupTable, IsometricAction
from nafree.freegroup import FreeWord, graev_delta_bruteforce
from nafree.oracles import boolean_membership_closure
from nafree.serialize import encode_certificate
from nafree.spaces import Partition, PartitionChain, ball_chain, extend_with_zero


def w(points, ground=4):
    return BooleanWord(frozenset(points), ground)


@pytest.mark.parametrize("points", [{1.5}, {True}, {0, 2}, {-1}])
def test_boolean_word_checks_each_point(points):
    # 1.5 and True are not read as the point 1
    with pytest.raises(InputError):
        BooleanWord(frozenset(points), 2)


def test_bool_add():
    assert bool_add(w({0, 1}), w({1, 2})) == w({0, 2})
    u = w({0, 3})
    assert bool_add(u, u) == w(set())
    assert bool_add(u, w(set())) == u


def test_bool_add_mismatched_spaces():
    with pytest.raises(PreconditionError):
        bool_add(w({0}, 3), w({0}, 4))


def test_support_parity():
    sp = split_space()
    zero = sp.size
    assert support(w({0, 1})) == frozenset({0, 1})
    assert support(w({0})) == frozenset({0, zero})
    assert support(w({0, 1, 2})) == frozenset({0, 1, 2, zero})
    with pytest.raises(PreconditionError):
        support(w(set()))


def test_phi():
    ext = aug(split_space())
    assert phi(Configuration(((0, 1),)), ext) == 1
    # d(p,q) = 1 and d(r, 0-element) = 2
    assert phi(Configuration(((0, 1), (2, ext.zero))), ext) == 2
    assert phi(Configuration(((0, 0),)), ext) == 0
    assert phi(Configuration(()), ext) == 0


def test_reduce_configuration_examples():
    ground = 4
    trivial = Configuration(((0, 0), (1, 2)))
    assert reduce_configuration(trivial).pairs == ((1, 2),)
    chain = Configuration(((0, 1), (1, 2)))
    assert reduce_configuration(chain).pairs == ((0, 2),)
    fix = Configuration(((0, 1),))
    assert reduce_configuration(fix) == fix
    for cfg in (trivial, chain):
        assert reduce_configuration(cfg).word(ground) == cfg.word(ground)


def test_reduce_configuration_monotone_random():
    rng = random.Random(3)
    for _ in range(60):
        sp = random_ultrametric(rng, rng.randint(2, 5))
        ext = aug(sp)
        pairs = tuple(
            (rng.randrange(ext.size), rng.randrange(ext.size)) for _ in range(rng.randint(1, 4))
        )
        cfg = Configuration(pairs)
        red = reduce_configuration(cfg)
        assert red.is_normal()
        assert red.word(sp.size) == cfg.word(sp.size)
        assert phi(red, ext) <= phi(cfg, ext)


def test_enumerate_normal_configuration_counts():
    assert len(enumerate_normal_configurations(w({0, 1}))) == 1
    assert len(enumerate_normal_configurations(w({0, 1, 2, 3}))) == 3
    assert len(enumerate_normal_configurations(w({0, 1, 2, 3, 4}, 6))) == 15
    with pytest.raises(CapExceeded):
        enumerate_normal_configurations(w({0, 1, 2, 3}), cap=2)


def test_norm_pair_and_singleton():
    sp = split_space()
    ext = aug(sp)
    assert graev_norm_bruteforce(w({0, 1}), ext).value == sp.d(0, 1)
    assert graev_norm_bruteforce(w({0}), ext).value == ext.d(0, ext.zero)
    assert graev_norm_bruteforce(w(set()), ext).value == 0


def test_norm_split_space():
    ext = aug(split_space())
    for fn in (graev_norm_bruteforce, graev_norm_fast):
        assert fn(w({0, 1, 2, 3}), ext).value == 1
        assert fn(w({0, 2}), ext).value == 2


def test_norm_certificate_witness_consistent():
    ext = aug(split_space())
    for u in all_boolean_words(4):
        for cert in (graev_norm_bruteforce(u, ext), graev_norm_fast(u, ext)):
            assert cert.witness.word(4) == u
            assert phi(cert.witness, ext) == cert.value


def test_fast_equals_brute_random():
    for sp in corpus(seed=5, count=40, max_size=6):
        ext = aug(sp)
        for u in all_boolean_words(sp.size):
            assert graev_norm_fast(u, ext).value == graev_norm_bruteforce(u, ext).value


def test_norm_upper_bounds_all_configurations():
    # the minimum really ranges over an upper-bound family
    ext = aug(split_space())
    for u in all_boolean_words(4):
        if u.is_zero():
            continue
        val = graev_norm_fast(u, ext).value
        for cfg in enumerate_normal_configurations(u):
            assert val <= phi(cfg, ext)


def _first_minimum(u, ext):
    # the oracle's definition: min keeps the first configuration of least d-length
    cfg = min(enumerate_normal_configurations(u), key=lambda c: phi(c, ext))
    return phi(cfg, ext), cfg.pairs


def test_bruteforce_certificate_is_the_first_minimum():
    # with one or two distinct distances ties are common, so a search that let
    # a later tie replace the first minimum would change the witness
    rng = random.Random(41)
    ties = ((Fraction(1),), (Fraction(1, 2), Fraction(1)))
    spaces = corpus(seed=41, count=40, max_size=8)
    spaces += [random_ultrametric(rng, size, values) for values in ties for size in range(2, 13)]
    for sp in spaces:
        ext = aug(sp)
        words = list(all_boolean_words(sp.size))
        if sp.size > 9:  # support 12: a few seeded words
            words = words[-1:] + rng.sample(words, 3)
        for u in words:
            cert = graev_norm_bruteforce(u, ext)
            want = (Fraction(0), ()) if u.is_zero() else _first_minimum(u, ext)
            assert (cert.value, cert.witness.pairs) == want, (sp.dist, u)


def test_bruteforce_cap_and_range_errors():
    ext = aug(split_space())
    with pytest.raises(CapExceeded, match=r"^\|supp\(u\)\| = 4 exceeds enumeration cap 2$"):
        graev_norm_bruteforce(w({0, 1, 2, 3}), ext, cap=2)
    # a pair outside the space: the norms refuse such a word first (below)
    with pytest.raises(InputError, match=r"^pair \(2,5\) outside the augmented space$"):
        phi(Configuration(((0, 1), (2, 5))), ext)


@pytest.mark.parametrize("norm", [graev_norm_fast, graev_norm_bruteforce])
def test_norms_refuse_a_word_over_another_ground(norm):
    # over ground 3 the padding index 3 is the point s of the 4-point space,
    # not its zero, so {p} would read as the pair (p, s) of norm 2, not 1
    ext = aug(split_space())
    assert norm(w({0}), ext).value == 1
    for u in (w({0}, 3), w({0, 1, 2}, 5), w(set(), 3)):
        with pytest.raises(PreconditionError, match=r"^words over different spaces$"):
            norm(u, ext)


_SPLIT, _JOINED = Partition.discrete(3), Partition.indiscrete(3)
_THREE_CHAIN = PartitionChain(((Fraction(1), _JOINED), (Fraction(0), _SPLIT)))
_OVER_ANOTHER_GROUND = {
    "eps_subgroup_membership": lambda: eps_subgroup_membership(w({0, 1}, 5), _SPLIT),
    "ab_eps_membership": lambda: ab_eps_membership(AbelianWord(((0, 1), (1, -1)), 5), _JOINED),
    "closedness_witness": lambda: closedness_witness(w({0, 1}, 2), _THREE_CHAIN),
    "bn_avoidance_check": lambda: bn_avoidance_check(AbelianWord(((0, 2), (4, 2)), 5), 3, _THREE_CHAIN),
    "bn_interior_witness": lambda: bn_interior_witness(AbelianWord((), 2), 2, _JOINED),
    # letter 3 of a 4-letter word would be costed as the inverse of x0
    "graev_delta_bruteforce": lambda: graev_delta_bruteforce(
        FreeWord((), 4), FreeWord(((3, 1), (0, 1)), 4), discrete_dbar(3)
    ),
}


@pytest.mark.parametrize("case", sorted(_OVER_ANOTHER_GROUND))
def test_rules_refuse_a_word_over_another_ground_set(case):
    # a word over another ground set than the partition's, chain's or
    # space's has no answer: its points would be read as other points
    with pytest.raises(PreconditionError, match=r"^word (ground set|alphabet) does not match the "):
        _OVER_ANOTHER_GROUND[case]()


def test_zero_attaches_at_the_space_basepoint():
    for sp in corpus(seed=77, count=30, max_size=6):
        for b in range(sp.size):
            a = extend_with_zero(replace(sp, basepoint=b))
            for x in range(sp.size):
                u = BooleanWord(frozenset({x}), sp.size)
                fast, brute = graev_norm_fast(u, a), graev_norm_bruteforce(u, a)
                assert encode_certificate(fast, a)["basepoint"] == sp.names[b]
                assert encode_certificate(brute, a)["basepoint"] == sp.names[b]
                assert fast.value == brute.value == max(sp.d(x, b), 1)


def test_graev_metric_examples():
    # the norm metric ||u + v||
    sp = split_space()
    ext = aug(sp)
    assert graev_norm_fast(bool_add(w({0}), w({1})), ext).value == sp.d(0, 1)
    assert graev_norm_fast(bool_add(w({0, 2}), w({0, 2})), ext).value == 0
    assert graev_norm_fast(bool_add(w({0, 1}), w({0, 2})), ext).value == sp.d(1, 2)


def test_eps_membership_examples():
    joined = Partition((frozenset({0, 1}), frozenset({2}), frozenset({3})), 4)
    assert eps_subgroup_membership(w({0, 1}), joined)
    assert not eps_subgroup_membership(w({0, 2}), joined)
    two_blocks = Partition((frozenset({0, 1}), frozenset({2, 3})), 4)
    assert eps_subgroup_membership(w({0, 1, 2, 3}), two_blocks)


def test_eps_membership_agrees_with_closure_oracle():
    for n in (2, 3, 4):
        for part in all_partitions(n):
            for u in all_boolean_words(n):
                assert eps_subgroup_membership(u, part) == boolean_membership_closure(u, part)


def test_separating_entourage():
    sp = split_space()
    chain = ball_chain(sp)
    part = chain.separating_level(w({0, 2}).points)
    assert part is not None and part.block_index(0) != part.block_index(2)
    coarse = PartitionChain(((Fraction(2), Partition.indiscrete(4)),))
    assert coarse.separating_level(w({0, 2}).points) is None
    assert chain.separating_level(w({0, 1}).points).separates({0, 1})


def test_closedness_witness():
    sp = split_space()
    chain = ball_chain(sp)
    for u in all_boolean_words(4):
        if len(u.points) == 1:
            with pytest.raises(PreconditionError):
                closedness_witness(u, chain)
            continue
        part = closedness_witness(u, chain)
        assert part is not None
        for x in range(4):
            assert not eps_subgroup_membership(bool_add(u, w({x})), part)


def test_ball_equals_subgroup_exhaustive():
    from conftest import split_space_half

    sp = split_space_half()
    ext = aug(sp)
    pool = list(all_boolean_words(4))
    rep = ball_equals_subgroup(ext, Fraction(3, 4), pool)
    assert rep.passed
    # a singleton never lies in the ball: ||{x}|| = d(x, 0-element) >= 1
    for u, in_ball, member in rep.rows:
        if len(u.points) == 1:
            assert not in_ball and not member
    with pytest.raises(PreconditionError):
        ball_equals_subgroup(ext, 1, pool)


def _swap_pq_action():
    sp = split_space()
    g = FiniteGroupTable.cyclic(2)
    return IsometricAction(g, sp, ((0, 1, 2, 3), (1, 0, 2, 3)))


def test_lift_action():
    act = _swap_pq_action()
    ext = aug(act.space)
    u = w({0, 2})
    assert lift_action(act, 0, u) == u
    moved = lift_action(act, 1, u)
    assert moved == w({1, 2})
    assert graev_norm_fast(moved, ext).value == graev_norm_fast(u, ext).value == 2
    assert lift_action(act, 1, w(set())) == w(set())


@pytest.mark.parametrize("g", [-1, 2, True, 1.0])
def test_lift_action_refuses_an_element_outside_the_group(g):
    # before, -1 and True were read as element 1, and 2 and 1.0 raised bare errors
    for u in (w({0, 2}), w(set())):
        with pytest.raises(InputError, match=f"^element {re.escape(repr(g))} outside 0..1$"):
            lift_action(_swap_pq_action(), g, u)


def test_lift_action_is_additive():
    act = _swap_pq_action()
    for u, v in itertools.product(all_boolean_words(4), repeat=2):
        for g in range(2):
            assert lift_action(act, g, bool_add(u, v)) == bool_add(
                lift_action(act, g, u), lift_action(act, g, v)
            )
