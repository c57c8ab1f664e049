"""The free abelian group A(X): word length and finite-scale checks of the
closedness / empty-interior lemmas behind noncompleteness."""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import CapExceeded, InputError, PreconditionError, shown
from .spaces import Partition, PartitionChain, index

BN_CAP = 6  # largest length n whose ball B_n is enumerated


@dataclass(frozen=True)
class AbelianWord:
    """Integer combination of points, stored as sorted (point, coeff) pairs
    with no zero coefficients; the empty tuple is the zero element."""

    coeffs: tuple[tuple[int, int], ...]
    ground: int

    def __post_init__(self):
        seen = set()
        for p, c in self.coeffs:
            index(p, self.ground, "point")
            if type(c) is not int:
                raise InputError(f"coefficient {shown(c)} is not an integer")
            if p in seen:
                raise InputError(f"duplicate point {p}")
            seen.add(p)
        object.__setattr__(self, "coeffs", tuple(sorted((p, c) for p, c in self.coeffs if c)))

    @classmethod
    def zero(cls, ground: int) -> "AbelianWord":
        return cls((), ground)

    @classmethod
    def from_dict(cls, d: dict[int, int], ground: int) -> "AbelianWord":
        return cls(tuple(d.items()), ground)

    def coeff(self, p: int) -> int:
        for q, c in self.coeffs:
            if q == p:
                return c
        return 0

    def supp(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs


def ab_add(u: AbelianWord, v: AbelianWord) -> AbelianWord:
    if u.ground != v.ground:
        raise PreconditionError("words over different spaces")
    acc = dict(u.coeffs)
    for p, c in v.coeffs:
        acc[p] = acc.get(p, 0) + c
    return AbelianWord.from_dict(acc, u.ground)


def ab_negate(u: AbelianWord) -> AbelianWord:
    return AbelianWord(tuple((p, -c) for p, c in u.coeffs), u.ground)


def lh(w: AbelianWord) -> int:
    """Word length: the sum of absolute coefficients; lh(0) = 0."""
    return sum(abs(c) for _, c in w.coeffs)


def class_sums(w: AbelianWord, eps: Partition) -> tuple[int, ...]:
    """Per-block coefficient sums: the image of w in the free abelian group
    over the blocks."""
    if w.ground != eps.ground:
        raise PreconditionError("word ground set does not match the partition")
    return eps.block_sums(w.coeffs)


def ab_eps_membership(w: AbelianWord, eps: Partition) -> bool:
    """w lies in <{x - y : x,y epsilon-equivalent}> iff all class sums vanish."""
    return all(s == 0 for s in class_sums(w, eps))


def coset_length(w: AbelianWord, eps: Partition) -> int:
    """The least length of a word in the coset w + <eps>, sum_B |s_B(w)|:
    moving all of a block's mass onto one of its points keeps every class
    sum, and no word with class sums s_B has length below sum_B |s_B|."""
    return sum(map(abs, class_sums(w, eps)))


def ball_size(n: int, ground: int) -> int:
    """|B_n| = sum_k 2^k C(ground, k) C(n, k): choose k points, their signs,
    and positive coefficients summing to at most n."""
    return sum(2**k * comb(ground, k) * comb(n, k) for k in range(n + 1))


def enumerate_Bn(n: int, ground: int) -> list[AbelianWord]:
    """All words of length <= n over the ground set."""
    if n > BN_CAP:
        raise CapExceeded(f"n = {n} exceeds the enumeration cap {BN_CAP}")
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    # (coefficients so far, length left), extended one point at a time with
    # every coefficient in increasing order
    partial: list[tuple[tuple[tuple[int, int], ...], int]] = [((), n)]
    for point in range(ground):
        partial = [
            (acc + ((point, c),) if c else acc, budget - abs(c))
            for acc, budget in partial
            for c in range(-budget, budget + 1)
        ]
    return [AbelianWord(acc, ground) for acc, _ in partial]


def bn_avoidance_check(w: AbelianWord, n: int, base: PartitionChain) -> bool:
    """Whether (w + <eps>) avoids B_n at the chain's separating level of
    supp(w), decided by enumerating the whole ball: the oracle of
    `coset_length`."""
    if lh(w) <= n:
        raise PreconditionError(f"lh(w) = {lh(w)} must exceed n = {n}")
    if any(part.ground != w.ground for part in base.partitions):
        raise PreconditionError("word ground set does not match the chain")
    eps = base.separating_level(w.supp())
    if eps is None:
        raise PreconditionError("no chain level separates the support of w")
    ball = enumerate_Bn(n, w.ground)
    return not any(ab_eps_membership(ab_add(w, ab_negate(v)), eps) for v in ball)


def bn_interior_witness(w: AbelianWord, n: int, eps: Partition) -> AbelianWord:
    """A single generator +-(x - y) of <eps> with lh(w + v) = lh(w) + 2.

    Requires an epsilon-equivalent pair (x, y) with x outside supp(w); the
    sign is chosen so neither new letter cancels.
    """
    if lh(w) > n:
        raise PreconditionError(f"lh(w) = {lh(w)} must be <= n = {n}")
    if w.ground != eps.ground:
        raise PreconditionError("word ground set does not match the partition")
    supp = w.supp()
    for block in eps.blocks:
        if len(block) < 2:
            continue
        outside = sorted(block - supp)
        if not outside:
            continue
        x = outside[0]
        y = next(p for p in sorted(block) if p != x)
        if w.coeff(y) > 0:
            v = AbelianWord(((x, -1), (y, 1)), w.ground)  # y - x
        else:
            v = AbelianWord(((x, 1), (y, -1)), w.ground)  # x - y
        assert lh(ab_add(w, v)) == lh(w) + 2
        return v
    raise PreconditionError(
        "no usable generator: every multi-point block lies inside supp(w)"
    )
