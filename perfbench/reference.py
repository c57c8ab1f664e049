"""Reference answers computed without the package's decision procedures.

Blocks come from the generator's dendrogram, not from `nafree.spaces`; the
Graev norm is read off those blocks; the F(X) Graev metric is an interval
dynamic programme over non-crossing matchings.  The benchmark compares every
timed answer with these, outside the timed region.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from gen import GenSpace

Letter = tuple[int, int]


def chain_thresholds(space: GenSpace) -> list[Fraction]:
    """Thresholds of the "auto" ball chain, coarsest first, ending at 0."""
    return sorted(space.values, reverse=True) + [Fraction(0)]


def partition(space: GenSpace, t: Fraction) -> tuple[list[list[int]], dict[int, int]]:
    """Blocks of d <= t as sorted point lists, in order of their least point,
    and the index of each point's block."""
    bl = sorted(sorted(b) for b in space.blocks_at(t))
    return bl, {p: i for i, b in enumerate(bl) for p in b}


def graev_norm(space: GenSpace, points: frozenset[int]) -> Fraction:
    """The Graev ultra-norm of a Boolean word on the zero-extended space.

    The zero element joins the block of the basepoint (point 0) once the
    threshold reaches 1, since d(x, 0) = max(d(x, x0), 1).  The norm is the
    least threshold at which every block holds an even count of the support.
    """
    if not points:
        return Fraction(0)
    odd = len(points) % 2 == 1
    for r in sorted(set(space.values) | {Fraction(1)}):
        ids = partition(space, r)[1]
        counts: dict[int, int] = {}
        for p in points:
            counts[ids[p]] = counts.get(ids[p], 0) + 1
        if odd:
            key = ids[0] if r >= 1 else -1
            counts[key] = counts.get(key, 0) + 1
        if all(c % 2 == 0 for c in counts.values()):
            return r
    raise AssertionError("the top threshold always pairs the support")


def boolean_member(space: GenSpace, t: Fraction, points: frozenset[int]) -> bool:
    ids = partition(space, t)[1]
    counts: dict[int, int] = {}
    for p in points:
        counts[ids[p]] = counts.get(ids[p], 0) ^ 1
    return not any(counts.values())


def class_sums(space: GenSpace, t: Fraction, coeffs: dict[int, int]) -> list[int]:
    """Per-block coefficient sums, blocks in order of their least point."""
    bl, index = partition(space, t)
    sums = [0] * len(bl)
    for p, c in coeffs.items():
        sums[index[p]] += c
    return sums


def free_image(space: GenSpace, t: Fraction, letters: list[Letter]) -> list[Letter]:
    """The freely reduced image of a word under letter -> block."""
    ids = partition(space, t)[1]
    out: list[Letter] = []
    for p, s in letters:
        b = ids[p]
        if out and out[-1] == (b, -s):
            out.pop()
        else:
            out.append((b, s))
    return out


def graev_delta(dist, n: int, letters: tuple[Letter, ...]) -> Fraction:
    """The Graev ultra-metric distance of a reduced word w from e.

    For a metric satisfying the Graev conditions this is the min-max over
    non-crossing partial matchings of w's positions: a matched pair (i, k)
    costs d(w_i, w_k^-1) and an unmatched letter costs d(w_i, e).  The
    brute force over padded trivial words reaches the same value, because the
    free reduction of a trivial word pairs its letters without crossings.
    """
    e = 2 * n
    idx = [p if s == 1 else p + n for p, s in letters]
    inv = [p + n if s == 1 else p for p, s in letters]

    @lru_cache(maxsize=None)
    def f(i: int, j: int) -> Fraction:  # positions i..j-1
        if i >= j:
            return Fraction(0)
        best = max(dist[idx[i]][e], f(i + 1, j))
        for k in range(i + 1, j):
            cost = max(dist[idx[i]][inv[k]], f(i + 1, k), f(k + 1, j))
            if cost < best:
                best = cost
        return best

    return f(0, len(idx))
