"""Independent brute-force oracles for the membership and norm rules.

These deliberately avoid the decision procedures they certify: the Boolean
oracle closes the generator set under addition, the abelian oracle searches
bounded integer combinations, the free-group oracle deletes in-block pairs,
the strong-triangle oracle scans every triple of points, and the ball oracle
compares exact distances pair by pair.
"""
from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .abelian import AbelianWord, ab_add, ab_negate, lh
from .boolean import BooleanWord, bool_add
from .spaces import Matrix, Partition

FreeLetters = tuple[tuple[int, int], ...]  # a reduced word of (point, sign) letters


def strong_triangle_scan(m: Matrix) -> Optional[tuple[int, int, int]]:
    """The first triple (i, j, k) of distinct points, in permutation order,
    with d(i,k) > max(d(i,j), d(j,k)), or None: the O(n^3) definition that
    `spaces.validate_ultrametric` decides on a spanning tree."""
    for i, j, k in itertools.permutations(range(len(m)), 3):
        if m[i][k] > max(m[i][j], m[j][k]):
            return i, j, k
    return None


def ball_partition_scan(m: Matrix, r, strict: bool = False) -> Partition:
    """The balls {q : d(p,q) <= r} (d(p,q) < r if strict) of every point p,
    each listed once: the definition that `spaces.ball_partition` and
    `spaces.strict_ball_partition` decide on distance ranks."""
    n = len(m)
    balls = {
        frozenset(q for q in range(n) if (m[p][q] < r if strict else m[p][q] <= r))
        for p in range(n)
    }
    return Partition(tuple(balls), n)


def boolean_membership_closure(u: BooleanWord, eps: Partition) -> bool:
    """Close {x+y : x,y epsilon-equivalent} under addition, restricted to
    words supported inside supp(u) joined with the blocks meeting it."""
    relevant: set[int] = set(u.points)
    for block in eps.blocks:
        if block & u.points:
            relevant |= block
    gens = [
        BooleanWord(frozenset({x, y}), u.ground)
        for block in eps.blocks
        for x, y in itertools.combinations(sorted(block & relevant), 2)
    ]
    zero = BooleanWord.zero(u.ground)
    visited = {zero}
    queue = [zero]
    while queue:
        w = queue.pop()
        for g in gens:
            nxt = bool_add(w, g)
            if nxt.points <= relevant and nxt not in visited:
                visited.add(nxt)
                queue.append(nxt)
    return u in visited


def abelian_membership_search(w: AbelianWord, eps: Partition) -> bool:
    """Search integer combinations of in-block generators x - y with total
    mass at most lh(w)."""
    if w.is_zero():
        return True
    gens = [
        AbelianWord(((x, 1), (y, -1)), w.ground)
        for block in eps.blocks
        for x, y in itertools.combinations(sorted(block), 2)
    ]
    return _combination_reaches(w, gens, 0, AbelianWord.zero(w.ground), lh(w))


def _combination_reaches(
    w: AbelianWord, gens: list[AbelianWord], i: int, acc: AbelianWord, budget: int
) -> bool:
    """Depth first: does acc plus an integer combination of gens[i:] of total
    mass at most `budget` equal w?"""
    if acc == w:
        return True
    if i == len(gens):
        return False
    for c in range(-budget, budget + 1):
        term = acc
        if c > 0:
            for _ in range(c):
                term = ab_add(term, gens[i])
        elif c < 0:
            for _ in range(-c):
                term = ab_add(term, ab_negate(gens[i]))
        if _combination_reaches(w, gens, i + 1, term, budget - abs(c)):
            return True
    return False


def deletion_closure(eps: Partition, words: Sequence[FreeLetters]) -> list[FreeLetters]:
    """The words, in order, of the subgroup of the free group generated by
    the conjugated eps-generators, given a breadth-first list of reduced
    words that holds every such word up to its length cap: a
    `freegroup._raw_words` list, or the closure of a coarser partition over
    one.

    A reduced word lies in the closure iff deleting some adjacent pair
    x^s y^-s with x, y eps-equivalent (each deletion is right multiplication
    by an inverse conjugated generator) leads to the empty word.  Any
    shorter representative is reachable this way, so within the cap the
    search is complete, not merely a semi-decision.  A deletion leaves a
    shorter word, which the list holds earlier, so one pass decides every
    word from words already decided.  A finer partition allows a subset of
    the deletions, so its closure lies inside a coarser one's.
    """
    block = {p: i for i, b in enumerate(eps.blocks) for p in b}
    closed = dict.fromkeys([()])  # an ordered set
    for w in words:
        n = len(w)
        for i in range(n - 1):
            (x, s), (y, t) = w[i], w[i + 1]
            if t == -s and block[x] == block[y]:
                # w is reduced, so only the letters that meet across the
                # gap can cancel
                j, k = i, i + 2
                while j and k < n and w[j - 1] == (w[k][0], -w[k][1]):
                    j -= 1
                    k += 1
                if w[:j] + w[k:] in closed:
                    closed[w] = None
                    break
    return list(closed)
