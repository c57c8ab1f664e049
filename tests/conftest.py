"""Shared builders for the test suite."""
from __future__ import annotations

import itertools
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(__file__))

from nafree.freegroup import SymmetrizedSpace
from nafree.spaces import UltraMetricSpace, extend_with_zero


def make_space(rows, names=None, basepoint=0) -> UltraMetricSpace:
    dist = tuple(tuple(Fraction(v) for v in row) for row in rows)
    if names is None:
        names = tuple(f"x{i}" for i in range(len(rows)))
    return UltraMetricSpace(dist, tuple(names), basepoint)


def split_space() -> UltraMetricSpace:
    """The 4-point space with two blocks {p,q}, {r,s} at inner distance 1,
    cross distance 2."""
    return make_space(
        [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]],
        names=("p", "q", "r", "s"),
    )


def split_space_half() -> UltraMetricSpace:
    """Same shape with inner distance 1/2 (inside the unit ball)."""
    h = Fraction(1, 2)
    return make_space(
        [[0, h, 2, 2], [h, 0, 2, 2], [2, 2, 0, h], [2, 2, h, 0]],
        names=("p", "q", "r", "s"),
    )


def aug(space: UltraMetricSpace):
    return extend_with_zero(space)


def discrete_dbar(n: int) -> SymmetrizedSpace:
    """X union X^-1 union {e} over n generators, all at distance 1."""
    size = 2 * n + 1
    rows = [[Fraction(0 if i == j else 1) for j in range(size)] for i in range(size)]
    return SymmetrizedSpace(n, tuple(tuple(r) for r in rows))


def all_partitions(n: int):
    """Every set partition of 0..n-1, via restricted-growth assignment."""
    from nafree.spaces import Partition

    def rec(i, blocks):
        if i == n:
            yield Partition(tuple(frozenset(b) for b in blocks), n)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def all_boolean_words(n: int):
    from nafree.boolean import BooleanWord

    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            yield BooleanWord(frozenset(combo), n)
