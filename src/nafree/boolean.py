"""The free Boolean group B(X): configuration calculus and Graev ultra-norm.

Elements of B(X) are finite subsets of X under symmetric difference.  The
adjoined zero element of the augmented space is the point index `ground`
(one past the base points); configurations live over that extended index set.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import CapExceeded, InputError, PreconditionError
from .finite_groups import IsometricAction
from .spaces import (
    AugmentedSpace,
    Partition,
    PartitionChain,
    _ball_classes,
    index,
    rational,
    strict_ball_partition,
)

DEFAULT_ENUM_CAP = 12


@dataclass(frozen=True)
class BooleanWord:
    """A finite subset of the base points 0..ground-1; zero word is empty."""

    points: frozenset[int]
    ground: int

    def __post_init__(self):
        object.__setattr__(self, "points", frozenset(self.points))
        for p in self.points:
            index(p, self.ground, "point")

    @classmethod
    def zero(cls, ground: int) -> "BooleanWord":
        return cls(frozenset(), ground)

    def is_zero(self) -> bool:
        return not self.points

    def __len__(self) -> int:
        return len(self.points)


def bool_add(u: BooleanWord, v: BooleanWord) -> BooleanWord:
    if u.ground != v.ground:
        raise PreconditionError("words over different spaces")
    return BooleanWord(u.points ^ v.points, u.ground)


def support(u: BooleanWord) -> frozenset[int]:
    """The word's points, padded with the zero index when the count is odd."""
    if u.is_zero():
        raise PreconditionError("support is defined only for nonzero words")
    if len(u.points) % 2 == 0:
        return u.points
    return u.points | {u.ground}


@dataclass(frozen=True)
class Configuration:
    """A finite list of point pairs over the augmented index set.

    Represents the Boolean word given by the symmetric-difference sum of all
    entries (the zero index contributes nothing).  Pairs are stored with the
    smaller index first; pair order is irrelevant to the d-length.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple(tuple(sorted(p)) for p in self.pairs)
        object.__setattr__(self, "pairs", norm)

    def word(self, ground: int) -> BooleanWord:
        acc: set[int] = set()
        for a, b in self.pairs:
            for t in (a, b):
                if t != ground:
                    acc ^= {t}
        return BooleanWord(frozenset(acc), ground)

    def is_normal(self) -> bool:
        ent = [t for p in self.pairs for t in p]
        return len(ent) == len(set(ent))


def phi(config: Configuration, space: AugmentedSpace) -> Fraction:
    """The d-length: max pair distance; 0 for the empty configuration."""
    best = Fraction(0)
    for a, b in config.pairs:
        if not (0 <= a < space.size and 0 <= b < space.size):
            raise InputError(f"pair ({a},{b}) outside the augmented space")
        v = space.d(a, b)
        if v > best:
            best = v
    return best


def reduce_configuration(config: Configuration) -> Configuration:
    """Apply trivial-pair deletion, inversion and chain reduction to a fixpoint.

    The result is normal, represents the same word, and never has a larger
    d-length (chain reduction is bounded by the strong triangle inequality).
    """
    pairs = [tuple(p) for p in config.pairs]
    changed = True
    while changed:
        changed = False
        pairs = [p for p in pairs if p[0] != p[1]]
        found = None
        for i, j in itertools.combinations(range(len(pairs)), 2):
            shared = set(pairs[i]) & set(pairs[j])
            if shared:
                found = (i, j, shared.pop())
                break
        if found is not None:
            i, j, t = found
            a = pairs[i][0] if pairs[i][1] == t else pairs[i][1]
            b = pairs[j][0] if pairs[j][1] == t else pairs[j][1]
            rest = [p for k, p in enumerate(pairs) if k not in (i, j)]
            pairs = rest + [(a, b)]
            changed = True
    return Configuration(tuple(pairs))


def _pairings(points: list[int]) -> Iterator[tuple[tuple[int, int], ...]]:
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for i in range(len(rest)):
        partner = rest[i]
        remaining = rest[:i] + rest[i + 1 :]
        for tail in _pairings(remaining):
            yield ((first, partner),) + tail


def enumerate_normal_configurations(
    u: BooleanWord, cap: int = DEFAULT_ENUM_CAP
) -> list[Configuration]:
    """All perfect pairings of supp(u), one orientation per pair.

    Count is (2k-1)!! for |supp(u)| = 2k.
    """
    return [Configuration(p) for p in _pairings(_capped_support(u, cap))]


def _capped_support(u: BooleanWord, cap: int) -> list[int]:
    supp = sorted(support(u))
    if len(supp) > cap:
        raise CapExceeded(f"|supp(u)| = {len(supp)} exceeds enumeration cap {cap}")
    return supp


def _check_ground(u: BooleanWord, space: AugmentedSpace) -> None:
    """The word must be over the base points, or its zero index would be a
    real point of the space."""
    if u.ground != space.base.size:
        raise PreconditionError("words over different spaces")


@dataclass(frozen=True)
class NormCertificate:
    """A norm and a pairing that attains it; the basepoint is the space's."""

    value: Fraction
    witness: Configuration
    algorithm: str


def graev_norm_bruteforce(
    u: BooleanWord, space: AugmentedSpace, cap: int = DEFAULT_ENUM_CAP
) -> NormCertificate:
    """Minimum d-length over all normal u-configurations.

    An exhaustive search over the perfect pairings of the support, in the
    order `_pairings` yields them, on exact distances: a branch is dropped
    once its largest distance is not below the best pairing found, so the
    first minimum in that order is the witness.
    """
    _check_ground(u, space)
    if u.is_zero():
        return NormCertificate(Fraction(0), Configuration(()), "brute")
    supp = _capped_support(u, cap)
    # `_pairings` yields this pairing first: its d-length bounds the search
    first = Configuration(tuple(zip(supp[::2], supp[1::2])))
    value, pairs = phi(first, space), first.pairs
    better = _least_pairing(space.dist, tuple(supp), Fraction(0), value)
    if better is not None:
        value, pairs = better
    return NormCertificate(value, Configuration(pairs), "brute")


def _least_pairing(dist, points, top, bound):
    """The first pairing of `points`, in `_pairings` order, of least d-length
    strictly below `bound` when `top` is the largest distance paired so far,
    as (d-length, pairs); None if there is none."""
    if not points:
        return top, ()
    first, rest = points[0], points[1:]
    row = dist[first]
    found = None
    for i, partner in enumerate(rest):
        v = row[partner]
        if v < top:
            v = top
        if not v < bound:
            continue
        tail = _least_pairing(dist, rest[:i] + rest[i + 1 :], v, bound)
        if tail is not None:
            bound = tail[0]
            found = bound, ((first, partner),) + tail[1]
    return found


def graev_norm_fast(u: BooleanWord, space: AugmentedSpace) -> NormCertificate:
    """Block-parity threshold algorithm for the Graev ultra-norm.

    A pairing with max edge <= r exists iff every class of the relation
    d <= r holds an even number of support points (ball relations of an
    ultra-metric are transitive).  The norm is the smallest such threshold
    among the pairwise support distances.
    """
    _check_ground(u, space)
    if u.is_zero():
        return NormCertificate(Fraction(0), Configuration(()), "fast")
    supp = sorted(support(u))
    thresholds = sorted({space.d(a, b) for a, b in itertools.combinations(supp, 2)})
    for r in thresholds:
        classes = _ball_classes(space.dist, supp, r)
        if all(len(c) % 2 == 0 for c in classes):
            pairs = tuple(
                (c[i], c[i + 1]) for c in classes for i in range(0, len(c), 2)
            )
            return NormCertificate(r, Configuration(pairs), "fast")
    raise AssertionError("even support size guarantees a feasible threshold")


def eps_subgroup_membership(u: BooleanWord, eps: Partition) -> bool:
    """u lies in the subgroup generated by {x+y : x,y epsilon-equivalent}
    iff every block holds an even number of points of u."""
    if u.ground != eps.ground:
        raise PreconditionError("word ground set does not match the partition")
    return all(c % 2 == 0 for c in eps.block_sums(zip(u.points, itertools.repeat(1))))


def closedness_witness(u: BooleanWord, base: PartitionChain) -> Optional[Partition]:
    """A chain level whose coset u + <eps> misses the embedded copy of X.

    Verified exactly: eps_subgroup_membership(u + {x}, eps) must fail for
    every base point x, so a chain over another ground set is refused.
    """
    if len(u) == 1:
        raise PreconditionError("u is in the image of X; no witness exists")
    for _, part in base:
        if all(
            not eps_subgroup_membership(bool_add(u, BooleanWord(frozenset({x}), u.ground)), part)
            for x in range(u.ground)
        ):
            return part
    return None


@dataclass(frozen=True)
class BallSubgroupReport:
    """Per-word comparison of the open norm ball with the parity subgroup."""

    rows: tuple[tuple[BooleanWord, bool, bool], ...]  # (word, norm < eps, member)

    @property
    def passed(self) -> bool:
        return all(a == b for _, a, b in self.rows)


def ball_equals_subgroup(
    space: AugmentedSpace, eps_value, word_pool
) -> BallSubgroupReport:
    """Check ||u|| < eps  <=>  u in <{x+y : d(x,y) < eps}> over a word pool."""
    eps = rational(eps_value)
    if not 0 < eps < 1:
        raise PreconditionError(f"threshold must lie in (0,1), got {eps}")
    part = strict_ball_partition(space.base, eps)
    rows = []
    for u in word_pool:
        in_ball = graev_norm_fast(u, space).value < eps
        member = eps_subgroup_membership(u, part)
        rows.append((u, in_ball, member))
    return BallSubgroupReport(rows=tuple(rows))


def lift_action(action: IsometricAction, g: int, u: BooleanWord) -> BooleanWord:
    """Pointwise image g.u = {g.x : x in u}; an automorphism of B(X)."""
    if u.ground != action.space.size:
        raise PreconditionError("word does not live over the action's space")
    perm = [action.apply(g, x) for x in range(u.ground)]  # checks g also when u is empty
    return BooleanWord(frozenset(perm[x] for x in u.points), u.ground)
