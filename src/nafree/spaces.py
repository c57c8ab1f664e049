"""Finite ultra-metric spaces, partitions and pseudometric combinators.

Points are dense integers 0..n-1; display names live in a side table on the
space.  All distances are exact `fractions.Fraction` values.  A space also
keeps the rank of each distance among its distinct values: balls, entourages
and isometries depend only on the order of the distances, so validation, ball
partitions and isometry checks compare small ints, and ties stay exact.
"""
from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress
from typing import Iterable, Optional, Sequence

from .errors import InputError, PreconditionError, Violation, clip, shown

Matrix = tuple[tuple[Fraction, ...], ...]
Ranks = tuple[tuple[int, ...], ...]

_ZERO, _ONE = Fraction(0), Fraction(1)


def rational(v) -> Fraction:
    """The one reader of exact values: a Fraction as the same object, an int
    that is not a bool, or a string such as "p/q"; anything else, floats and
    bools included, is an InputError, and so is an exponent such as "1e3",
    since `Fraction` would build 10**exp exactly."""
    if type(v) is Fraction:
        return v
    if isinstance(v, bool) or not isinstance(v, (int, str, Fraction)):
        raise InputError(f"not a rational: {shown(v)}")
    if isinstance(v, str) and re.search(r"[eE][-+]?\d", v):
        raise InputError(f"malformed rational {shown(v)}: exponents are not read")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {shown(v)}: {clip(str(exc))}") from exc


def index(v, n: int, what: str) -> int:
    """The one reader of indices: `v` itself if it is an int that is not a
    bool, in 0..n-1; anything else, True and 1.0 included, is an InputError
    naming `what`."""
    if type(v) is not int or not 0 <= v < n:
        raise InputError(f"{what} {shown(v)} outside 0..{n - 1}")
    return v


def as_tuple(v, what: str) -> tuple:
    """`v` as a tuple; an InputError naming `what` unless it is a tuple or a
    list, so a set, a string or a generator is not read in some order."""
    if not isinstance(v, (tuple, list)):
        raise InputError(f"{what} must be a list or tuple, got {shown(v)}")
    return tuple(v)


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

    @cached_property
    def walk(self):
        """`_spanning_tree` of the ranks, walked at most once."""
        return _spanning_tree(self.rank)


def rank_matrix(rows: Iterable[Sequence]) -> RankedMatrix:
    """`rows` as Fractions with their ranks; InputError names the first
    non-rational entry in row-major order.  A row of str and int spellings
    reads each new one once by `rational` and looks the rest up; any other
    row is read entry by entry (True and 1.0 equal 1 as keys), keyed by id."""
    read: dict = {}  # spelling -> its value
    kept: dict = {}  # id -> a Fraction of a row read entry by entry
    m, keys = [], []  # each row's values, and (1 if by id, its spellings or ids)
    try:
        for row in rows:
            row = tuple(row)
            kinds = set(map(type, row))
            if kinds <= {str, int}:
                for v in dict.fromkeys(row):
                    if v not in read:
                        read[v] = rational(v)
                keys.append((0, row))
                row = tuple(map(read.__getitem__, row))
            else:
                if kinds != {Fraction}:
                    row = tuple(map(rational, row))
                keys.append((1, tuple(map(id, row))))
                kept.update(zip(keys[-1][1], row))
            m.append(row)
    except TypeError as exc:  # `rational` raises InputError, so a row is not iterable
        raise InputError(f"malformed matrix: {exc}") from exc
    # a Fraction hashes and compares in Python, its lowest-terms pair in C
    pair = {(v.numerator, v.denominator): v for d in (read, kept) for v in d.values()}
    scale = tuple(sorted({(0, 1): _ZERO, **pair}.values()))
    at = {(v.numerator, v.denominator): r for r, v in enumerate(scale)}
    of = [{k: at[v.numerator, v.denominator] for k, v in d.items()} for d in (read, kept)]
    rank = tuple(tuple(map(of[by_id].__getitem__, key)) for by_id, key in keys)
    return RankedMatrix(tuple(m), scale, rank)


def _spanning_tree(m) -> tuple[Optional[tuple[int, int, int]], list[int], list]:
    """Prim's walk of `m` from point 0: (witness, order, join), with the
    points in visiting order and each one's entry to its tree parent.  `m`
    is square and symmetric with zero diagonal; other zero entries are
    allowed (ultra-pseudometrics).  Only the order of the entries matters,
    so `m` may hold ranks.

    The witness is None, or the first triple (i, j, k) with i < k and
    d(i,k) > max(d(i,j), d(j,k)), where the walk stops.  Such a matrix
    satisfies the strong triangle iff every entry equals the largest edge
    on the path between its points in a minimum spanning tree (Gower & Ross
    1969), and an entry is never below that edge.  So one walk decides in
    O(n^2): when v joins through parent p, the largest edge to an earlier
    tree point u is max(d(p,u), d(v,p)), since the pair (p,u) has already
    passed, and if d(v,u) exceeds it, (v, p, u) is a witness.
    """
    n = len(m)
    parent, join = [0] * n, list(m[0] if n else ())
    order, rest = [0] if n else [], list(range(1, n))
    while rest:
        v = min(rest, key=join.__getitem__)
        rest.remove(v)
        p, row = parent[v], m[v]
        w, via = join[v], m[p]
        for u in order:
            if row[u] > w and row[u] > via[u]:
                return (min(v, u), p, max(v, u)), order, join
        order.append(v)
        for x in rest:
            if row[x] < join[x]:
                join[x], parent[x] = row[x], v
    return None, order, join


@dataclass(frozen=True)
class MetricViolation:
    """First failed axiom of an ultra-metric candidate matrix."""

    kind: str  # "diagonal" | "positivity" | "symmetry" | "strong_triangle"
    points: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.points}: {self.detail}"


def validate_ultrametric(rows) -> Optional[MetricViolation]:
    """Check the ultra-metric axioms; return the first violation or None.

    The order is diagonal, symmetry, strong triangle, then positivity, so a
    matrix is an ultra-pseudometric exactly when the result is None or a
    "positivity" violation.  `rows` is a matrix, or the RankedMatrix of one;
    the checks compare ranks.  Structural problems (non-square matrix,
    negative or malformed entries) raise InputError instead of being
    reported as violations.
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
        if row != col:  # rows and columns before i agree, so j > i
            j = next(j for j in range(i + 1, n) if row[j] != col[j])
            return MetricViolation(
                "symmetry", (i, j), f"d({i},{j}) = {m[i][j]} != {m[j][i]} = d({j},{i})"
            )
    bad = t.walk[0]
    if bad is not None:
        i, j, k = bad
        bound = max(m[i][j], m[j][k])
        return MetricViolation(
            "strong_triangle",
            bad,
            f"d({i},{k}) = {m[i][k]} > max(d({i},{j}), d({j},{k})) = {bound}",
        )
    for i, row in enumerate(rank):
        if 0 in row[i + 1 :]:
            j = row.index(0, i + 1)
            return MetricViolation("positivity", (i, j), f"d({i},{j}) = 0 for {i} != {j}")
    return None


@dataclass(frozen=True)
class UltraMetricSpace:
    """Finite point set with an exact ultra-metric distance matrix.

    `dist` holds the values that answers and messages show; `scale` and
    `rank` are its rank encoding (see RankedMatrix), built once, on which
    validation, ball partitions and isometry checks decide.  `dist` may be a
    RankedMatrix; `tree` is (order, join) of its `_spanning_tree`.
    """

    dist: Matrix
    names: tuple[str, ...] | None = None  # None: the names x0, x1, ...
    basepoint: int = 0
    scale: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    rank: Ranks = field(init=False, repr=False, compare=False)
    tree: tuple = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = self.dist if isinstance(self.dist, RankedMatrix) else rank_matrix(self.dist)
        names = (
            tuple(f"x{i}" for i in range(len(table)))
            if self.names is None else as_tuple(self.names, "names")
        )
        if not all(isinstance(name, str) for name in names):
            raise InputError("point names must be strings")
        if len(set(names)) != len(names):
            raise InputError("duplicate point names")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(names)})
        for name in ("dist", "scale", "rank"):
            object.__setattr__(self, name, getattr(table, name))
        if len(self.names) != len(self.dist):
            raise InputError("name table does not match matrix size")
        if not self.dist:
            raise InputError("the space has no points")
        if "0" in self.names:
            raise InputError('point name "0" is reserved for the adjoined zero element')
        index(self.basepoint, len(self.dist), "basepoint")
        bad = validate_ultrametric(table)
        if bad is not None:
            raise Violation(f"not an ultra-metric: {bad}")
        object.__setattr__(self, "tree", table.walk[1:])

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
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
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


def extend_with_zero(space: UltraMetricSpace) -> AugmentedSpace:
    """Adjoin the zero element with d(x, 0) = max(d(x, b), 1), where b is
    `space.basepoint`; `dataclasses.replace(space, basepoint=...)` moves it.

    The result is an ultra-metric by construction, so it is not re-checked:
    d(x, y) <= max(d(x, b), d(b, y)) <= max(d(x, 0), d(y, 0)), and
    d(x, 0) <= max(d(x, y), d(y, 0)) since d(x, b) <= max(d(x, y), d(y, b))
    and 1 <= d(y, 0).
    """
    zrow = tuple(max(row[space.basepoint], _ONE) for row in space.dist)
    rows = [row + (z,) for row, z in zip(space.dist, zrow)]
    rows.append(zrow + (_ZERO,))
    return AugmentedSpace(base=space, dist=tuple(rows))


@dataclass(frozen=True)
class Partition:
    """Equivalence relation on 0..ground-1, stored as sorted disjoint blocks."""

    blocks: tuple[frozenset[int], ...]
    ground: int
    _block_of: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if type(self.ground) is not int or self.ground < 0:
            raise InputError(f"ground {shown(self.ground)} is not a non-negative int")
        blocks = tuple(map(frozenset, self.blocks))
        for p in chain.from_iterable(blocks):
            index(p, self.ground, "point")
        if not all(blocks):
            raise Violation("empty block")
        blocks = tuple(sorted(blocks, key=min))
        object.__setattr__(self, "blocks", blocks)
        seen: dict[int, int] = {}
        for i, b in enumerate(blocks):
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

    def block_sums(self, terms: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """Per-block sums of the coefficients c of (point, c) terms: the image
        of the sum of c * point in the free abelian group over the blocks."""
        sums = [0] * len(self.blocks)
        block = self._block_of
        try:
            for p, c in terms:
                sums[block[p]] += c
        except KeyError as exc:
            raise InputError(f"point {exc.args[0]} outside the partition ground set") from None
        return tuple(sums)

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self sits inside a block of other."""
        if self.ground != other.ground:
            return False
        pairs = zip(self._block_of.values(), map(other._block_of.__getitem__, self._block_of))
        return len(set(pairs)) == len(self.blocks)  # each block meets one of other's

    def separates(self, points: frozenset[int] | set[int]) -> bool:
        idx = [self.block_index(p) for p in points]
        return len(idx) == len(set(idx))


def _level(v, i: int) -> tuple[Fraction, Partition]:
    """Chain level `i` as (threshold, partition); an InputError naming the
    level unless it is a list or tuple of a threshold and a Partition."""
    level = as_tuple(v, f"level {i}")
    if len(level) != 2 or not isinstance(level[1], Partition):
        raise InputError(f"level {i} must be a threshold and a Partition, got {shown(v)}")
    return rational(level[0]), level[1]


@dataclass(frozen=True)
class PartitionChain:
    """Strictly decreasing thresholds with partitions that refine downward."""

    levels: tuple[tuple[Fraction, Partition], ...]

    def __post_init__(self):
        levels = tuple(_level(v, i) for i, v in enumerate(as_tuple(self.levels, "levels")))
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

    def separating_level(self, points) -> Optional[Partition]:
        """The coarsest level whose blocks separate `points` pairwise, or None."""
        return next((p for _, p in self.levels if p.separates(points)), None)


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
    """Partition by the relation rank(p,q) <= t in O(n).  The tree's edges
    of rank <= t join the balls (single linkage), and Prim's walk finishes a
    ball before it leaves it: each ball is a run of `order`, and every point
    of a run but its first joined by an edge of rank <= t."""
    order, join = space.tree
    n = len(order)
    cuts = [0, *compress(range(1, n), map(t.__lt__, map(join.__getitem__, order[1:]))), n]
    return Partition(tuple(frozenset(order[a:b]) for a, b in zip(cuts, cuts[1:])), n)


def ball_partition(space: UltraMetricSpace, r) -> Partition:
    """Partition by the relation d(p,q) <= r; transitive by strong triangle."""
    r = rational(r)
    if r < 0:
        raise PreconditionError(f"negative radius {r}")
    return _rank_partition(space, bisect_right(space.scale, r) - 1)


def strict_ball_partition(space: UltraMetricSpace, r) -> Partition:
    """Partition by the relation d(p,q) < r (also transitive)."""
    r = rational(r)
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


def combine_pseudometrics(family: Sequence[Sequence[Sequence]]) -> CombinedMetric:
    """d(x,y) = max_n 2^-n * d_n(x,y) for a finite family d_1, d_2, ...

    Each member must be an ultra-pseudometric bounded by 1: a matrix that
    `validate_ultrametric` accepts or finds at fault only in positivity.
    If the family fails to separate some pair the result is only a
    pseudometric; that is reported via `separates`, never silently coerced.
    """
    tables = [rank_matrix(m) for m in family]
    if not tables:
        raise PreconditionError("empty pseudometric family")
    n = len(tables[0])
    for t in tables:
        if len(t) != n:
            raise InputError("pseudometric matrices have mixed sizes")
        bad = validate_ultrametric(t)
        if bad is not None and bad.kind != "positivity":
            raise InputError(f"not an ultra-pseudometric: {bad}")
        if t.scale[-1] > _ONE:
            i, j = next((i, j) for i in range(n) for j in range(n) if t.dist[i][j] > _ONE)
            raise InputError(f"entry ({i},{j}) = {t.dist[i][j]} above 1")
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(max(Fraction(1, 2) ** (k + 1) * t.dist[i][j] for k, t in enumerate(tables)))
        rows.append(tuple(row))
    dist = tuple(rows)
    separates = all(dist[i][j] > 0 for i in range(n) for j in range(i + 1, n))
    return CombinedMetric(dist=dist, separates=separates)
