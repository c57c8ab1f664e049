"""Finite ultra-metric spaces, partitions and pseudometric combinators.

Points are dense integers 0..n-1; display names live in a side table on the
space.  All distances are exact `fractions.Fraction` values.  A space also
keeps the rank of each distance among its distinct values: balls, entourages
and isometries depend only on the order of the distances, so validation, ball
partitions and isometry checks compare small ints, and ties stay exact.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, PreconditionError, Violation, shown

Matrix = tuple[tuple[Fraction, ...], ...]
Ranks = tuple[tuple[int, ...], ...]

_ZERO = Fraction(0)


def _as_matrix(rows: Sequence[Sequence]) -> Matrix:
    """Rows as tuples of Fractions; an entry that is already one is kept."""
    return tuple(
        tuple(v if isinstance(v, Fraction) else Fraction(v) for v in row) for row in rows
    )


@dataclass(frozen=True)
class RankedMatrix:
    """A matrix of exact distances and its rank encoding.

    `scale` holds the distinct entries in increasing order, with 0 first
    even where no entry is 0, and `rank[i][j]` is the index of `dist[i][j]`
    in it.  Ranks order the entries exactly as their values do.
    """

    dist: Matrix
    scale: tuple[Fraction, ...]
    rank: Ranks

    def __len__(self) -> int:
        return len(self.dist)


def rank_matrix(rows: Sequence[Sequence]) -> RankedMatrix:
    """`rows` as Fractions with their ranks; InputError for an entry that is
    not a rational."""
    try:
        m = _as_matrix(rows)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational entry: {exc}") from exc
    # a Fraction hashes and compares in Python, its lowest-terms pair in C;
    # entries parsed from one spelling share one object, so dedupe those first
    objs = {id(v): v for row in m for v in row}
    pair = {i: (v.numerator, v.denominator) for i, v in objs.items()}
    distinct = {(0, 1): _ZERO, **{pair[i]: v for i, v in objs.items()}}
    scale = tuple(sorted(distinct.values()))
    at = {(v.numerator, v.denominator): r for r, v in enumerate(scale)}
    of = {i: at[p] for i, p in pair.items()}
    rank = tuple(tuple(map(of.__getitem__, map(id, row))) for row in m)
    return RankedMatrix(m, scale, rank)


def _strong_triangle_witness(m) -> Optional[tuple[int, int, int]]:
    """A triple (i, j, k) with i < k and d(i,k) > max(d(i,j), d(j,k)), or
    None if there is none.  `m` is square and symmetric with zero diagonal;
    other zero entries are allowed (ultra-pseudometrics).  Only the order of
    the entries matters, so `m` may hold ranks.

    Such a matrix satisfies the strong triangle iff every entry equals the
    largest edge on the path between its points in a minimum spanning tree
    (Gower & Ross 1969), and an entry is never below that edge.  So one
    Prim's run decides in O(n^2): when v joins through parent p, the largest
    edge to an earlier tree point u is max(d(p,u), d(v,p)), since the pair
    (p,u) has already passed, and if d(v,u) exceeds it, (v, p, u) is a
    witness.
    """
    n = len(m)
    if n < 3:
        return None
    parent, best = [0] * n, list(m[0])
    tree, rest = [0], list(range(1, n))
    while rest:
        v = min(rest, key=best.__getitem__)
        rest.remove(v)
        p, row = parent[v], m[v]
        w, via = best[v], m[p]
        for u in tree:
            if row[u] > w and row[u] > via[u]:
                return min(v, u), p, max(v, u)
        tree.append(v)
        for x in rest:
            if row[x] < best[x]:
                best[x], parent[x] = row[x], v
    return None


@dataclass(frozen=True)
class MetricViolation:
    """First failed axiom of an ultra-metric candidate matrix."""

    kind: str  # "diagonal" | "positivity" | "symmetry" | "strong_triangle"
    points: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.points}: {self.detail}"


def validate_ultrametric(rows) -> Optional[MetricViolation]:
    """Check the three ultra-metric axioms; return the first violation or None.

    `rows` is a matrix, or the RankedMatrix of one; the checks compare ranks.
    Structural problems (non-square matrix, negative or malformed entries)
    raise InputError instead of being reported as violations.
    """
    t = rows if isinstance(rows, RankedMatrix) else rank_matrix(rows)
    m, rank = t.dist, t.rank
    n = len(m)
    for row in m:
        if len(row) != n:
            raise InputError("matrix is not square")
    if t.scale[0] < 0:
        i, j = next((i, j) for i in range(n) for j in range(n) if m[i][j] < 0)
        raise InputError(f"negative entry at ({i},{j})")
    for i in range(n):
        if rank[i][i]:  # rank 0 is the value 0
            return MetricViolation("diagonal", (i,), f"d({i},{i}) = {m[i][i]} != 0")
    for i, (row, col) in enumerate(zip(rank, zip(*rank))):
        if row == col and 0 not in row[i + 1 :]:
            continue
        for j in range(i + 1, n):
            if row[j] != col[j]:
                return MetricViolation(
                    "symmetry", (i, j), f"d({i},{j}) = {m[i][j]} != {m[j][i]} = d({j},{i})"
                )
            if not row[j]:
                return MetricViolation("positivity", (i, j), f"d({i},{j}) = 0 for {i} != {j}")
    bad = _strong_triangle_witness(rank)
    if bad is not None:
        i, j, k = bad
        bound = max(m[i][j], m[j][k])
        return MetricViolation(
            "strong_triangle",
            bad,
            f"d({i},{k}) = {m[i][k]} > max(d({i},{j}), d({j},{k})) = {bound}",
        )
    return None


@dataclass(frozen=True)
class UltraMetricSpace:
    """Finite point set with an exact ultra-metric distance matrix.

    `dist` holds the values that answers and messages show; `scale` and
    `rank` are its rank encoding (see RankedMatrix), built once, on which
    validation, ball partitions and isometry checks decide.
    """

    dist: Matrix
    names: tuple[str, ...] = ()
    basepoint: int = 0
    scale: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    rank: Ranks = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = rank_matrix(self.dist)
        if not self.names:
            object.__setattr__(self, "names", tuple(f"x{i}" for i in range(len(table))))
        object.__setattr__(self, "dist", table.dist)
        object.__setattr__(self, "scale", table.scale)
        object.__setattr__(self, "rank", table.rank)
        if len(self.names) != len(self.dist):
            raise InputError("name table does not match matrix size")
        if "0" in self.names:
            raise InputError('point name "0" is reserved for the adjoined zero element')
        if not 0 <= self.basepoint < len(self.dist):
            raise InputError(f"basepoint {self.basepoint} out of range")
        bad = validate_ultrametric(table)
        if bad is not None:
            raise Violation(f"not an ultra-metric: {bad}")

    @property
    def size(self) -> int:
        return len(self.dist)

    def d(self, p: int, q: int) -> Fraction:
        return self.dist[p][q]

    def values(self) -> list[Fraction]:
        """Distinct nonzero distance values, ascending."""
        return list(self.scale[1:])

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown point name {shown(name)}") from None


@dataclass(frozen=True)
class AugmentedSpace:
    """An ultra-metric space with an adjoined zero element at index `size-1`.

    The zero element sits at distance max(d(x, basepoint), 1) from every x,
    which keeps the extended matrix an ultra-metric.
    """

    base: UltraMetricSpace
    dist: Matrix

    @property
    def size(self) -> int:
        return len(self.dist)

    @property
    def zero(self) -> int:
        return self.base.size

    @property
    def names(self) -> tuple[str, ...]:
        return self.base.names + ("0",)

    def d(self, p: int, q: int) -> Fraction:
        return self.dist[p][q]


def extend_with_zero(space: UltraMetricSpace, x0: int | None = None) -> AugmentedSpace:
    """Adjoin the zero element with d(x, 0) = max(d(x, x0), 1).

    The result is an ultra-metric by construction, so it is not re-checked:
    d(x, y) <= max(d(x, x0), d(x0, y)) <= max(d(x, 0), d(y, 0)), and
    d(x, 0) <= max(d(x, y), d(y, 0)) since d(x, x0) <= max(d(x, y), d(y, x0))
    and 1 <= d(y, 0).
    """
    if x0 is None:
        x0 = space.basepoint
    if not 0 <= x0 < space.size:
        raise PreconditionError(f"basepoint {x0} not in space")
    n = space.size
    zrow = tuple(max(space.d(x, x0), Fraction(1)) for x in range(n))
    rows = [space.dist[i] + (zrow[i],) for i in range(n)]
    rows.append(zrow + (Fraction(0),))
    return AugmentedSpace(base=space, dist=tuple(rows))


@dataclass(frozen=True)
class Partition:
    """Equivalence relation on 0..ground-1, stored as sorted disjoint blocks."""

    blocks: tuple[frozenset[int], ...]
    ground: int
    _block_of: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(sorted((frozenset(b) for b in self.blocks), key=min))
        object.__setattr__(self, "blocks", blocks)
        seen: dict[int, int] = {}
        for i, b in enumerate(blocks):
            if not b:
                raise Violation("empty block")
            for p in b:
                if p in seen:
                    raise Violation(f"point {p} occurs in two blocks")
                seen[p] = i
        if set(seen) != set(range(self.ground)):
            raise Violation("blocks do not cover the ground set 0..n-1")
        object.__setattr__(self, "_block_of", seen)

    @classmethod
    def discrete(cls, ground: int) -> "Partition":
        return cls(tuple(frozenset({p}) for p in range(ground)), ground)

    @classmethod
    def indiscrete(cls, ground: int) -> "Partition":
        return cls((frozenset(range(ground)),), ground)

    def block_index(self, p: int) -> int:
        try:
            return self._block_of[p]
        except KeyError:
            raise InputError(f"point {p} outside the partition ground set") from None

    def same_block(self, p: int, q: int) -> bool:
        return self.block_index(p) == self.block_index(q)

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self sits inside a block of other."""
        if self.ground != other.ground:
            return False
        return all(
            other.same_block(min(b), p) for b in self.blocks for p in b
        )

    def separates(self, points: frozenset[int] | set[int]) -> bool:
        idx = [self.block_index(p) for p in points]
        return len(idx) == len(set(idx))


@dataclass(frozen=True)
class PartitionChain:
    """Strictly decreasing thresholds with partitions that refine downward."""

    levels: tuple[tuple[Fraction, Partition], ...]

    def __post_init__(self):
        levels = tuple((Fraction(t), p) for t, p in self.levels)
        object.__setattr__(self, "levels", levels)
        for (t1, p1), (t2, p2) in zip(levels, levels[1:]):
            if not t2 < t1:
                raise Violation(f"thresholds must strictly decrease: {t1} then {t2}")
            if not p2.refines(p1):
                raise Violation(f"level {t2} does not refine level {t1}")

    def __iter__(self):
        return iter(self.levels)

    def __len__(self):
        return len(self.levels)

    @property
    def partitions(self) -> tuple[Partition, ...]:
        return tuple(p for _, p in self.levels)


def _ball_classes(dist, points, r) -> list[list[int]]:
    """Classes of the relation d(p,q) <= r on `points`, in first-seen order;
    `dist` may hold ranks and `r` a rank.  The strong triangle makes the
    relation transitive, so comparing with the first point of each class
    decides."""
    inside = r.__ge__
    classes: list[list[int]] = []
    for p in points:
        row = dist[p]
        for c in classes:
            if inside(row[c[0]]):
                c.append(p)
                break
        else:
            classes.append([p])
    return classes


def _rank_partition(space: UltraMetricSpace, t: int) -> Partition:
    """Partition by the relation rank(p,q) <= t."""
    blocks = _ball_classes(space.rank, range(space.size), t)
    return Partition(tuple(frozenset(b) for b in blocks), space.size)


def ball_partition(space: UltraMetricSpace, r) -> Partition:
    """Partition by the relation d(p,q) <= r; transitive by strong triangle."""
    r = Fraction(r)
    if r < 0:
        raise PreconditionError(f"negative radius {r}")
    return _rank_partition(space, bisect_right(space.scale, r) - 1)


def strict_ball_partition(space: UltraMetricSpace, r) -> Partition:
    """Partition by the relation d(p,q) < r (also transitive)."""
    r = Fraction(r)
    if r <= 0:
        raise PreconditionError(f"radius must be positive, got {r}")
    return _rank_partition(space, bisect_left(space.scale, r) - 1)


def ball_chain(space: UltraMetricSpace) -> PartitionChain:
    """The full chain of ball partitions, one level per distance value plus
    a discrete level at threshold 0."""
    ranks = range(len(space.scale) - 1, -1, -1)
    return PartitionChain(tuple((space.scale[t], _rank_partition(space, t)) for t in ranks))


@dataclass(frozen=True)
class CombinedMetric:
    """Result of the weighted sup-combination of a pseudometric family."""

    dist: Matrix
    separates: bool


def _check_ultra_pseudometric(m: Matrix, bound: Fraction) -> None:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise InputError("pseudometric matrix is not square")
    for i in range(n):
        if m[i][i] != 0:
            raise InputError(f"nonzero diagonal at {i}")
        for j in range(n):
            if m[i][j] < 0 or m[i][j] > bound:
                raise InputError(f"entry ({i},{j}) = {m[i][j]} outside [0, {bound}]")
            if m[i][j] != m[j][i]:
                raise InputError(f"asymmetric at ({i},{j})")
    bad = _strong_triangle_witness(m)
    if bad is not None:
        raise InputError("strong triangle fails at ({},{},{})".format(*bad))


def combine_pseudometrics(family: Sequence[Sequence[Sequence]]) -> CombinedMetric:
    """d(x,y) = max_n 2^-n * d_n(x,y) for a finite family d_1, d_2, ...

    Each member must be an ultra-pseudometric bounded by 1.  If the family
    fails to separate some pair the result is only a pseudometric; that is
    reported via `separates`, never silently coerced.
    """
    mats = [_as_matrix(m) for m in family]
    if not mats:
        raise PreconditionError("empty pseudometric family")
    n = len(mats[0])
    for m in mats:
        if len(m) != n:
            raise InputError("pseudometric matrices have mixed sizes")
        _check_ultra_pseudometric(m, Fraction(1))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(max(Fraction(1, 2 ** (k + 1)) * m[i][j] for k, m in enumerate(mats)))
        rows.append(tuple(row))
    dist = tuple(rows)
    separates = all(dist[i][j] > 0 for i in range(n) for j in range(i + 1, n))
    return CombinedMetric(dist=dist, separates=separates)
