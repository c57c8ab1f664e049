"""Seeded input generators for the benchmark.

Spaces come from a random dendrogram whose depth is fixed by the caller: a
"spine" path of internal nodes carries every value of the ladder, so the
space has exactly `depth` distinct distances and a ball chain of `depth + 1`
levels, whatever the seed.  The tree is kept next to the matrix, so the
reference answers in `reference.py` read blocks off the tree and never call
the package's own partition code.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

MAX_BRANCH = 4


def ladder(depth: int) -> tuple[Fraction, ...]:
    """`depth` distinct values, ascending, straddling 1 so that the zero
    extension d(x, 0) = max(d(x, x0), 1) meets values on both sides."""
    return tuple(Fraction(2 ** k, 2 ** (depth // 2)) for k in range(depth))


@dataclass(frozen=True)
class Node:
    value: Fraction
    points: frozenset[int]
    children: tuple["Node", ...]


@dataclass(frozen=True)
class GenSpace:
    """A generated ultra-metric space with its dendrogram."""

    n: int
    dist: tuple[tuple[Fraction, ...], ...]
    root: Node
    names: tuple[str, ...]

    @property
    def values(self) -> list[Fraction]:
        return sorted({self.dist[i][j] for i in range(self.n) for j in range(i + 1, self.n)})

    def stats(self) -> dict:
        """n, the count of distinct distances and the ball-chain depth."""
        vals = self.values
        return {"n": self.n, "distinct_distances": len(vals), "chain_depth": len(vals) + 1}

    def blocks_at(self, t: Fraction) -> list[frozenset[int]]:
        """Blocks of the relation d <= t, read off the tree."""
        out: list[frozenset[int]] = []

        def walk(node: Node) -> None:
            if node.value <= t:
                out.append(node.points)
            else:
                for c in node.children:
                    walk(c)

        walk(self.root)
        return out

    def swap_pair(self) -> tuple[int, int]:
        """Two leaves of a lowest cluster: swapping them is an isometry."""
        node = self.root
        while node.children and any(c.children for c in node.children):
            node = next(c for c in node.children if c.children)
        a, b = sorted(node.points)[:2]
        return a, b


def _leaf(p: int) -> Node:
    return Node(Fraction(0), frozenset({p}), ())


def random_space(rng: random.Random, n: int, depth: int) -> GenSpace:
    """A seeded space on n points with exactly `depth` distinct distances."""
    if not 1 <= depth <= n - 1:
        raise ValueError(f"depth {depth} needs 2 <= depth + 1 <= n, got n = {n}")
    values = ladder(depth)

    def build(points: list[int], level: int, spine: bool) -> Node:
        m = len(points)
        if m == 1:
            return _leaf(points[0])
        if level == 0:
            return Node(values[0], frozenset(points), tuple(_leaf(p) for p in points))
        # a spine child needs level + 1 points to reach level 0 with a pair
        need = level + 1 if spine else 1
        k = rng.randint(2, min(MAX_BRANCH, m - need + 1))
        sizes = [need] + [1] * (k - 1)
        for _ in range(m - sum(sizes)):
            sizes[rng.randrange(k)] += 1
        rng.shuffle(points)
        groups, start = [], 0
        for s in sizes:
            groups.append(points[start : start + s])
            start += s
        children = tuple(
            build(g, level - 1, spine and i == 0) for i, g in enumerate(groups)
        )
        return Node(values[level], frozenset(points), children)

    return _space(build(list(range(n)), depth - 1, True), n)


def clustered_space(rng: random.Random, sizes: tuple[int, ...]) -> GenSpace:
    """A seeded space of depth 2 whose level-0 clusters have the given sizes;
    the seed only decides which points go where, so every seed gives the
    same shape and the same cost to the algorithms that run on it."""
    n = sum(sizes)
    low, high = ladder(2)
    points = list(range(n))
    rng.shuffle(points)
    children, start = [], 0
    for size in sizes:
        group = points[start : start + size]
        start += size
        children.append(
            _leaf(group[0]) if size == 1
            else Node(low, frozenset(group), tuple(_leaf(p) for p in group))
        )
    return _space(Node(high, frozenset(points), tuple(children)), n)


def _space(root: Node, n: int) -> GenSpace:
    dist = [[Fraction(0)] * n for _ in range(n)]

    def fill(node: Node) -> None:
        for a, b in itertools.combinations(node.children, 2):
            for p in a.points:
                for q in b.points:
                    dist[p][q] = dist[q][p] = node.value
        for c in node.children:
            fill(c)

    fill(root)
    names = tuple(f"x{i}" for i in range(n))
    return GenSpace(n, tuple(tuple(r) for r in dist), root, names)


def _rational(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def workspace_json(space: GenSpace) -> str:
    """Workspace file text: the space, an "auto" ball chain and one action
    swapping two leaves of a lowest cluster."""
    a, b = space.swap_pair()
    perm = list(space.names)
    perm[a], perm[b] = perm[b], perm[a]
    obj = {
        "space": {
            "points": list(space.names),
            "dist": [[_rational(v) for v in row] for row in space.dist],
            "basepoint": space.names[0],
        },
        "chains": {"balls": "auto"},
        "actions": {"swap": {"perms": [perm]}},
        "options": {"cap": 12},
    }
    return json.dumps(obj)


def symmetrized_matrix(
    rng: random.Random, sizes: tuple[int, ...]
) -> tuple[tuple[Fraction, ...], ...]:
    """A Graev-valid metric on X, X^-1 and e (indices 0..n-1, n..2n-1, 2n).

    X plus e is a clustered space with the given cluster sizes, one of its
    points chosen by the seed to play e; inverses copy it through the
    inversion, and d(x^-1, y) = max(d(x, e), d(y, e)), the strong
    pattern, keeps the strong triangle and the inversion identities.
    """
    base = clustered_space(rng, sizes)
    n = base.n - 1
    e_base = rng.randrange(n + 1)  # which base point plays e
    order = [p for p in range(n + 1) if p != e_base] + [e_base]
    d = [[base.dist[order[i]][order[j]] for j in range(n + 1)] for i in range(n + 1)]
    size = 2 * n + 1
    e = 2 * n

    def half(i: int) -> int:  # position in d of a letter, its inverse or e
        return n if i == e else i % n

    out = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            same_side = (i < n) == (j < n) or e in (i, j)
            if same_side:
                out[i][j] = d[half(i)][half(j)]
            else:
                out[i][j] = max(d[half(i)][n], d[half(j)][n])
    return tuple(tuple(r) for r in out)
