"""Free group words, quotient kernels, the deletion closure and the Graev delta."""
import itertools
import random
from fractions import Fraction

import pytest

from conftest import all_partitions, discrete_dbar
from nafree.abelian import AbelianWord
from nafree.boolean import BooleanWord
from nafree.errors import CapExceeded, InputError, PreconditionError
from nafree.freegroup import (
    FreeWord,
    GrauCheck,
    SymmetrizedSpace,
    _image,
    _kernel,
    _raw_words,
    _trivial_sequences,
    check_grau_conditions,
    eps_tilde_membership,
    fg_invert,
    fg_multiply,
    graev_delta_bruteforce,
    project_to_abelian,
    quotient_hom,
    v_psi_ball,
    word_alphabet,
)
from nafree.oracles import deletion_closure
from nafree.spaces import Partition


def fw(letters, alphabet=3):
    return FreeWord(tuple(letters), alphabet)


@pytest.mark.parametrize(
    "letters",
    [
        ((5, 1), (5, -1)),  # outside the alphabet, though it cancels
        ((0, 2), (0, -2)),  # not +-1, though it cancels
        ((1.5, 1),),
        ((True, 1),),
        ((0, 1.0),),
        ((0, True),),
    ],
)
def test_free_word_checks_each_letter_before_reducing(letters):
    with pytest.raises(InputError):
        FreeWord(letters, 2)


def test_multiply_and_invert():
    x, y, z = ((i, 1) for i in range(3))
    assert fg_multiply(fw([x, y]), fw([(1, -1), z])) == fw([x, z])
    w = fw([x, y, (0, -1)])
    assert fg_multiply(w, fg_invert(w)).is_identity()
    assert fg_multiply(fw([]), w) == w


def test_free_reduction_canonical():
    assert fw([(0, 1), (0, -1)]).is_identity()
    assert fw([(0, 1), (1, 1), (1, -1), (0, -1), (2, 1)]) == fw([(2, 1)])


def test_multiplication_associative_random():
    rng = random.Random(17)
    words = [
        fw([(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(0, 4))])
        for _ in range(30)
    ]
    for _ in range(60):
        a, b, c = (rng.choice(words) for _ in range(3))
        assert fg_multiply(fg_multiply(a, b), c) == fg_multiply(a, fg_multiply(b, c))


def test_quotient_hom_examples():
    joined = Partition((frozenset({0, 1}), frozenset({2})), 3)
    assert quotient_hom(fw([(0, 1), (1, -1)]), joined).is_identity()
    split = Partition.discrete(3)
    img = quotient_hom(fw([(0, 1), (1, 1)]), split)
    assert img.letters == ((0, 1), (1, 1))
    conj = fw([(0, 1), (2, 1), (0, -1)])
    assert len(quotient_hom(conj, joined)) == 3


def test_quotient_hom_is_homomorphism():
    rng = random.Random(23)
    part = Partition((frozenset({0, 2}), frozenset({1})), 3)
    words = [
        fw([(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(0, 4))])
        for _ in range(25)
    ]
    for u, v in itertools.product(words[:10], repeat=2):
        assert quotient_hom(fg_multiply(u, v), part) == fg_multiply(
            quotient_hom(u, part), quotient_hom(v, part)
        )


def test_eps_tilde_membership_examples():
    joined = Partition((frozenset({0, 1}), frozenset({2})), 3)
    assert eps_tilde_membership(fw([(0, 1), (1, -1)]), joined)
    conj = fw([(2, 1), (0, 1), (1, -1), (2, -1)])
    assert eps_tilde_membership(conj, joined)
    across = Partition((frozenset({0}), frozenset({1, 2})), 3)
    assert not eps_tilde_membership(fw([(0, 1), (1, -1)]), across)


def test_quotient_rejects_a_mismatched_alphabet():
    part = Partition.discrete(2)
    for word in (FreeWord((), 3), FreeWord(((0, 1),), 3)):
        with pytest.raises(PreconditionError):
            eps_tilde_membership(word, part)
        with pytest.raises(PreconditionError):
            quotient_hom(word, part)


def test_kernel_chain_inclusion():
    # finer partition => smaller kernel
    fine = Partition((frozenset({0, 1}), frozenset({2})), 3)
    coarse = Partition.indiscrete(3)
    rng = random.Random(31)
    for _ in range(200):
        w = fw([(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))])
        if eps_tilde_membership(w, fine):
            assert eps_tilde_membership(w, coarse)


def test_v_psi_ball_constant_matches_kernel():
    for n in (2, 3):
        for part in all_partitions(n):
            ball = v_psi_ball(part, 4)
            for w in [FreeWord(t, n) for t in _raw_words(range(n), 4)]:
                assert (w in ball) == eps_tilde_membership(w, part)


def test_v_psi_ball_trivial_cases():
    sing = Partition.discrete(3)
    assert v_psi_ball(sing, 4) == frozenset({FreeWord((), 3)})
    whole = Partition.indiscrete(3)
    assert v_psi_ball(whole, 0) == frozenset({FreeWord((), 3)})
    with pytest.raises(CapExceeded):
        v_psi_ball(whole, 99)


def test_raw_words_are_the_reduced_words_breadth_first():
    for n in range(4):
        letters = [(p, s) for p in range(n) for s in (1, -1)]
        want = [
            t for k in range(5) for t in itertools.product(letters, repeat=k)
            if FreeWord(t, n).letters == t
        ]
        assert _raw_words(range(n), 4) == want


def _closure_by_definition(eps, words, n):
    """The deletion search re-reducing each word with the pair deleted."""
    closed = {()}
    for w in words:
        for i in range(len(w) - 1):
            (x, s), (y, t) = w[i], w[i + 1]
            if t == -s and eps.block_index(x) == eps.block_index(y) and FreeWord(w[:i] + w[i + 2:], n).letters in closed:
                closed.add(w)
                break
    return [w for w in words if w in closed]


def test_deletion_closure_equals_the_definition():
    # cancelling only across the gap is the reduction of the shortened word,
    # a finer partition's closure, searched inside a coarser one's, is its
    # closure over all words, and the pruned walk keeps the same words
    for n in range(1, 5):
        for part, cap in itertools.product(all_partitions(n), range(5)):
            capped, kernel = _raw_words(range(n), cap), _kernel(range(n), cap, part)
            assert kernel == deletion_closure(part, capped)
            assert kernel == [w for w in capped if not _image(w, part)]
        assert _kernel(range(n), 0, Partition.discrete(n)) == [()]
        words = _raw_words(range(n), 4)
        closures = {part: deletion_closure(part, words) for part in all_partitions(n)}
        for part, closed in closures.items():
            assert closed == _closure_by_definition(part, words, n)
        for fine, coarse in itertools.permutations(closures, 2):
            if fine.refines(coarse):
                assert deletion_closure(fine, closures[coarse]) == closures[fine]


def _dbar_from_pairs(n, entries, default=Fraction(2)):
    """Build a symmetrized matrix from distances on half the index set."""
    size = 2 * n + 1
    rows = [[default] * size for _ in range(size)]
    sp = SymmetrizedSpace.__new__(SymmetrizedSpace)  # only for inv_index math

    def inv(i):
        if i == 2 * n:
            return i
        return i + n if i < n else i - n

    for (i, j), v in entries.items():
        for a, b in ((i, j), (inv(i), inv(j))):
            rows[a][b] = rows[b][a] = Fraction(v)
    for i in range(size):
        rows[i][i] = Fraction(0)
    return SymmetrizedSpace(n, tuple(tuple(r) for r in rows))


def test_check_grau_conditions_discrete():
    chk = check_grau_conditions(discrete_dbar(2))
    assert chk.ok
    assert chk.strong_pattern  # all unit distances trivially match the max pattern


def test_check_grau_conditions_violation():
    n = 1
    rows = [
        [0, 1, 1],
        [1, 0, 2],
        [1, 2, 0],
    ]
    dbar = SymmetrizedSpace(n, tuple(tuple(Fraction(v) for v in r) for r in rows))
    chk = check_grau_conditions(dbar)
    assert not chk.ok and chk.violation is not None


def test_the_graev_check_is_decided_when_the_space_is_built():
    # the verdict is a field of the space, so a broken matrix fails to build
    # only where it is malformed: a row of the wrong length
    with pytest.raises(InputError, match="^matrix is not square$"):
        SymmetrizedSpace(1, ((0, 1, 1), (1, 0), (1, 1, 0)))
    dbar = discrete_dbar(1)
    assert check_grau_conditions(dbar) is dbar.grau
    assert dbar.grau == GrauCheck(None, True) and dbar.grau.ok
    assert not GrauCheck("d(inv 0, 0) = 2 != d(0, inv 0) = 1", False).ok


def test_delta_extends_metric_on_letters():
    dbar = discrete_dbar(2)
    x = FreeWord(((0, 1),), 2)
    y = FreeWord(((1, 1),), 2)
    assert graev_delta_bruteforce(x, y, dbar) == dbar.d(0, 1)
    assert graev_delta_bruteforce(x, x, dbar) == 0


def test_delta_identity_vs_product():
    dbar = discrete_dbar(2)
    xy = FreeWord(((0, 1), (1, 1)), 2)
    e = FreeWord((), 2)
    val = graev_delta_bruteforce(xy, e, dbar)
    # some trivial word t1 t2 = e must be matched letterwise; with all
    # distances 1 the bottleneck is 1
    assert val == 1


def test_delta_bi_invariance_small():
    dbar = discrete_dbar(1)
    words = [FreeWord(w, 1) for w in _raw_words(range(1), 2)]
    for u, v, t in itertools.product(words, repeat=3):
        base = graev_delta_bruteforce(u, v, dbar)
        assert graev_delta_bruteforce(fg_multiply(t, u), fg_multiply(t, v), dbar) == base
        assert graev_delta_bruteforce(fg_multiply(u, t), fg_multiply(v, t), dbar) == base


def test_delta_cap_and_conditions_enforced():
    dbar = discrete_dbar(1)
    long = FreeWord(((0, 1),) * 8, 1)
    with pytest.raises(CapExceeded):
        graev_delta_bruteforce(long, FreeWord((), 1), dbar)
    bad_rows = [[0, 1, 1], [1, 0, 2], [1, 2, 0]]
    bad = SymmetrizedSpace(1, tuple(tuple(Fraction(v) for v in r) for r in bad_rows))
    with pytest.raises(PreconditionError):
        graev_delta_bruteforce(FreeWord((), 1), FreeWord((), 1), bad)


@pytest.mark.parametrize(
    "extra, message",
    [
        (3, "letter 3 outside 0..2"),  # the index of x0^-1
        (6, "letter 6 outside 0..2"),  # the index of e
        (7, "letter 7 outside 0..2"),
        (-1, "letter -1 outside 0..2"),
        (True, "letter True outside 0..2"),
        (1.0, "letter 1.0 outside 0..2"),
    ],
)
def test_delta_refuses_an_extra_letter_outside_the_space(extra, message):
    x = FreeWord(((0, 1), (1, 1)), 3)
    with pytest.raises(InputError, match=f"^{message}$"):
        graev_delta_bruteforce(x, FreeWord((), 3), discrete_dbar(3), [extra])


def test_trivial_sequences_equal_the_filtered_product():
    # the oracle: every sequence over the alphabet, kept when its word with
    # the e letters dropped freely reduces to e, in itertools.product order
    _trivial_sequences.cache.clear()
    for n in (1, 2, 3):
        dbar = discrete_dbar(n)
        letter = {i: (i % n, 1 if i < n else -1) for i in range(2 * n)}
        alphabets = {
            word_alphabet(FreeWord(tuple((p, 1) for p in used), n), dbar, extra)
            for k in range(n + 1)
            for used in itertools.combinations(range(n), k)
            for extra in ((), *itertools.combinations(range(n), 1), tuple(range(n)))
        }
        for alphabet, length in itertools.product(sorted(alphabets), range(7)):
            want = [
                seq for seq in itertools.product(alphabet, repeat=length)
                if FreeWord(tuple(letter[i] for i in seq if i != dbar.e), n).is_identity()
            ]
            got = _trivial_sequences(alphabet, length, dbar)
            assert got == want, (n, alphabet, length)
            assert _trivial_sequences(alphabet, length, dbar) is got


def _mod_2(w: FreeWord) -> BooleanWord:
    """The image in B(X): the letters of odd exponent sum."""
    return BooleanWord(frozenset(p for p, c in project_to_abelian(w).coeffs if c % 2), w.alphabet)


def test_projections():
    wrd = fw([(0, 1), (1, 1), (0, -1)])
    assert project_to_abelian(wrd) == AbelianWord.from_dict({1: 1}, 3)
    assert _mod_2(wrd) == BooleanWord(frozenset({1}), 3)
    sq = fw([(0, 1), (0, 1)])
    assert project_to_abelian(sq) == AbelianWord.from_dict({0: 2}, 3)
    assert _mod_2(sq) == BooleanWord(frozenset(), 3)
    e = fw([])
    assert project_to_abelian(e).is_zero()
    assert _mod_2(e).is_zero()


def test_projections_commute_with_quotient():
    from nafree.boolean import eps_subgroup_membership

    rng = random.Random(41)
    for part in all_partitions(3):
        for _ in range(40):
            w = fw([(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))])
            if eps_tilde_membership(w, part):
                assert eps_subgroup_membership(_mod_2(w), part)
