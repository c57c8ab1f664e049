"""Explicit finite groups, ultra-seminorm tables and their conversions."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import CapExceeded, InputError, PreconditionError, Violation
from .spaces import UltraMetricSpace, Matrix, as_tuple, index, rational

# largest group `from_permutations` closes: its table has order^2 entries,
# and the group axioms are checked in order^2 steps times the generators
MAX_GROUP_ORDER = 1000


def _generators(table: tuple[tuple[int, ...], ...], ident: int) -> list[int]:
    """Elements, chosen greedily in increasing order, whose left-nested
    products ((ident*s1)*s2)*... reach every element of the table."""
    gens: list[int] = []
    reached = {ident}
    for g in range(len(table)):
        if g in reached:
            continue
        gens.append(g)
        # reached elements were closed under the earlier generators
        queue = [table[r][g] for r in reached]
        while queue:
            x = queue.pop()
            if x not in reached:
                reached.add(x)
                queue.extend(table[x][s] for s in gens)
    return gens


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group given by its full multiplication table.

    Group axioms are verified on construction; identity and inverses are
    derived from the table.
    """

    mul: tuple[tuple[int, ...], ...]
    identity: int = field(init=False)
    inv: tuple[int, ...] = field(init=False)
    # by left-nested products these reach every element (see _generators)
    generators: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.mul)
        table = tuple(tuple(row) for row in self.mul)
        object.__setattr__(self, "mul", table)
        if any(len(row) != n for row in table):
            raise InputError("multiplication table is not a square over 0..n-1")
        for v in itertools.chain.from_iterable(table):
            index(v, n, "element")
        ident = None
        for e in range(n):
            if all(table[e][g] == g and table[g][e] == g for g in range(n)):
                ident = e
                break
        if ident is None:
            raise InputError("no identity element")
        inv = []
        for g in range(n):
            gi = next((h for h in range(n) if table[g][h] == ident), None)
            if gi is None or table[gi][g] != ident:
                raise InputError(f"element {g} has no two-sided inverse")
            inv.append(gi)
        # Light's test: the elements g with (a*b)*g == a*(b*g) for all a, b
        # are closed under products, so checking g over a set that generates
        # the table by left-nested products covers every triple
        gens = tuple(_generators(table, ident))
        for c in gens:
            col = [row[c] for row in table]  # b -> b*c
            for a, row in enumerate(table):
                # (a*b)*c against a*(b*c) for every b at once
                if [col[x] for x in row] != [row[y] for y in col]:
                    b = next(b for b in range(n) if col[row[b]] != row[col[b]])
                    raise InputError(f"associativity fails at ({a},{b},{c})")
        object.__setattr__(self, "identity", ident)
        object.__setattr__(self, "inv", tuple(inv))
        object.__setattr__(self, "generators", gens)

    @property
    def order(self) -> int:
        return len(self.mul)

    def op(self, g: int, h: int) -> int:
        return self.mul[g][h]

    def is_boolean(self) -> bool:
        """Every element has order at most 2."""
        return all(self.op(g, g) == self.identity for g in range(self.order))

    def is_subgroup(self, subset) -> bool:
        s = frozenset(subset)
        if not s or self.identity not in s:
            return False
        return all(self.op(a, self.inv[b]) in s for a in s for b in s)

    def is_normal(self, subset) -> bool:
        s = frozenset(subset)
        return self.is_subgroup(s) and all(
            self.op(self.op(a, h), self.inv[a]) in s for a in range(self.order) for h in s
        )

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroupTable":
        return cls(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))

    @classmethod
    def boolean_power(cls, k: int) -> "FiniteGroupTable":
        """(Z_2)^k with elements as bitmasks 0..2^k-1 under xor."""
        n = 1 << k
        return cls(tuple(tuple(i ^ j for j in range(n)) for i in range(n)))

    @classmethod
    def from_permutations(cls, perms: Sequence[Sequence[int]]) -> tuple["FiniteGroupTable", tuple[tuple[int, ...], ...]]:
        """Close a set of permutations under composition.

        Returns the group table and the element list (permutation tuples),
        with composition (p*q)(x) = p(q(x)).  Raises CapExceeded once the
        closure has more than MAX_GROUP_ORDER elements.
        """
        deg = len(perms[0]) if perms else 0
        ident = tuple(range(deg))
        gens = [tuple(p) for p in perms]
        for p in gens:
            if sorted(p) != list(range(deg)):
                raise InputError(f"{p} is not a permutation of 0..{deg - 1}")
        # in a finite group the products of generators already include every
        # inverse, so closing under multiplication by a generator suffices;
        # each element maps to the (element, generator) it was first reached
        # from, and dict order puts that element before it
        seen: dict[tuple[int, ...], tuple[tuple[int, ...], int] | None] = {ident: None}
        queue = [ident]
        while queue:
            p = queue.pop()
            for k, g in enumerate(gens):
                comp = tuple(p[g[x]] for x in range(deg))
                if comp not in seen:
                    seen[comp] = (p, k)
                    if len(seen) > MAX_GROUP_ORDER:
                        raise CapExceeded(
                            f"the permutations generate more than {MAX_GROUP_ORDER} elements"
                        )
                    queue.append(comp)
        elems = [ident] + sorted(e for e in seen if e != ident)
        pos = {e: i for i, e in enumerate(elems)}
        # the row of p*g is the row of p read through q -> g*q
        through = [[pos[tuple(map(g.__getitem__, q))] for q in elems] for g in gens]
        rows = {}
        for e, parent in seen.items():
            if parent is None:
                rows[e] = list(range(len(elems)))
            else:
                row = rows[parent[0]]
                rows[e] = [row[i] for i in through[parent[1]]]
        table = tuple(tuple(rows[e]) for e in elems)
        return cls(table), tuple(elems)


@dataclass(frozen=True)
class SeminormTable:
    """An ultra-seminorm on a finite group, tabulated per element."""

    group: FiniteGroupTable
    value: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(map(rational, as_tuple(self.value, "value")))
        object.__setattr__(self, "value", vals)
        g = self.group
        if len(vals) != g.order:
            raise InputError("value table size mismatch")
        if vals[g.identity] != 0:
            raise InputError("p(e) != 0")
        for x in range(g.order):
            if vals[x] < 0:
                raise InputError(f"negative value at {x}")
            if vals[g.inv[x]] != vals[x]:
                raise InputError(f"p({x}) != p(inverse)")
        for x, y in itertools.product(range(g.order), repeat=2):
            if vals[g.op(x, y)] > max(vals[x], vals[y]):
                raise InputError(f"ultra inequality fails at ({x},{y})")

    def is_norm(self) -> bool:
        return all(v > 0 for i, v in enumerate(self.value) if i != self.group.identity)

    def is_invariant(self) -> bool:
        g = self.group
        return all(
            self.value[g.op(g.op(a, x), g.inv[a])] == self.value[x]
            for a in range(g.order)
            for x in range(g.order)
        )


def seminorm_from_subgroup(group: FiniteGroupTable, subgroup) -> SeminormTable:
    """The {0,1} seminorm vanishing exactly on the subgroup."""
    s = frozenset(subgroup)
    if not group.is_subgroup(s):
        raise PreconditionError(f"{sorted(s)} is not a subgroup")
    vals = tuple(Fraction(0) if g in s else Fraction(1) for g in range(group.order))
    return SeminormTable(group, vals)


@dataclass(frozen=True)
class SubgroupResult:
    elements: frozenset[int]
    is_normal: bool


def subgroup_from_seminorm(p: SeminormTable, eps) -> SubgroupResult:
    """H_eps = {g : p(g) < eps}, verified to be a subgroup."""
    eps = rational(eps)
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    h = frozenset(g for g in range(p.group.order) if p.value[g] < eps)
    if not p.group.is_subgroup(h):  # impossible for a valid seminorm
        raise PreconditionError("sublevel set is not a subgroup")
    return SubgroupResult(elements=h, is_normal=p.group.is_normal(h))


@dataclass(frozen=True)
class IsometricAction:
    """A finite group acting by isometries on an ultra-metric space.

    `table[g][x]` is the image of point x under group element g.  Isometry
    and consistency with the group table are verified once at construction.
    """

    group: FiniteGroupTable
    space: UltraMetricSpace
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        tbl = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", tbl)
        g, sp = self.group, self.space
        n = sp.size
        if len(tbl) != g.order or any(len(row) != n for row in tbl):
            raise InputError("action table shape mismatch")
        for x in itertools.chain.from_iterable(tbl):
            index(x, n, "point")
        if tbl[g.identity] != tuple(range(n)):
            raise InputError("identity does not act trivially")
        # The checks run over the group's generators c only.  The elements c
        # with g.(c.x) == (g*c).x for every g are closed under products, so
        # they cover the group; then every element acts as a product of
        # generators, and isometries compose.  The first element that is not
        # an isometry is then a generator, the one the full scan would name.
        rank = sp.rank
        for a in g.generators:
            perm = tbl[a]
            for x in range(n):
                row = rank[perm[x]]
                if tuple(map(row.__getitem__, perm)) != rank[x]:
                    # rows before x match, so by symmetry the first moved y exceeds x
                    y = next(y for y in range(n) if row[perm[y]] != rank[x][y])
                    raise Violation(f"element {a} is not an isometry: moves pair ({x},{y})")
        for c in g.generators:
            col = tbl[c]
            for a, row in enumerate(tbl):
                if tbl[g.op(a, c)] != tuple(map(row.__getitem__, col)):
                    x = next(x for x in range(n) if tbl[g.op(a, c)][x] != row[col[x]])
                    raise InputError(f"action inconsistent with group table at ({a},{c},{x})")

    def apply(self, g: int, x: int) -> int:
        """The image of point x under element g, each read by `spaces.index`."""
        row = self.table[index(g, self.group.order, "element")]
        return row[index(x, self.space.size, "point")]


def seminorm_from_action(action: IsometricAction, x0: int) -> SeminormTable:
    """p(g) = d(x0, g.x0) for an isometric action."""
    sp = action.space
    vals = tuple(sp.d(x0, action.apply(g, x0)) for g in range(action.group.order))
    return SeminormTable(action.group, vals)


@dataclass(frozen=True)
class MetricFromSeminorm:
    dist: Matrix
    is_metric: bool  # False flags a pseudometric (p vanished off the identity)


def metric_from_seminorm(p: SeminormTable) -> MetricFromSeminorm:
    """d(x,y) = p(x^-1 y); left invariant by construction."""
    g = p.group
    rows = tuple(
        tuple(p.value[g.op(g.inv[x], y)] for y in range(g.order)) for x in range(g.order)
    )
    return MetricFromSeminorm(dist=rows, is_metric=p.is_norm())
