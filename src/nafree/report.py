"""Workspace-scoped property suite behind the `report` CLI command.

Each row re-checks one of the core claims of the construction on the loaded
space, exhaustively at desk scale, and reports pass/fail.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .abelian import AbelianWord, ball_size, coset_length
from .boolean import (
    BooleanWord,
    ball_equals_subgroup,
    bool_add,
    graev_norm_fast,
    support,
)
from .duality import universal_extension
from .errors import PreconditionError, shown
from .finite_groups import FiniteGroupTable
from .freegroup import _kernel, _raw_words
from .oracles import deletion_closure
from .serialize import Workspace, format_rational
from .spaces import Partition

REPORT_WORD_LIMIT = 6  # exhaustive pools use at most 2^6 words
L_EPS_POINTS = 6  # the l_eps row checks each level on at most this many points


def _word_pool(n: int) -> list[BooleanWord]:
    pts = list(range(min(n, REPORT_WORD_LIMIT)))
    return [
        BooleanWord(frozenset(c), n)
        for k in range(len(pts) + 1)
        for c in itertools.combinations(pts, k)
    ]


def _check_claim5(ws: Workspace) -> tuple[bool, str]:
    pool = _word_pool(ws.space.size)
    norms = {u: graev_norm_fast(u, ws.aug).value for u in pool}
    for u, nu in norms.items():
        if (nu == 0) != u.is_zero():
            return False, f"norm vanishes off zero at {sorted(u.points)}"
    for u, v in itertools.combinations(pool, 2):  # the pool is closed under +
        if norms[bool_add(u, v)] > max(norms[u], norms[v]):
            return False, f"ultra inequality fails at {sorted(u.points)}, {sorted(v.points)}"
    return True, f"{len(pool)} words, all pairs"


def _check_claim6(ws: Workspace) -> tuple[bool, str]:
    n = ws.space.size
    for x, y in itertools.combinations(range(n), 2):
        u = BooleanWord(frozenset({x, y}), n)
        if graev_norm_fast(u, ws.aug).value != ws.space.d(x, y):
            return False, f"||{{{x},{y}}}|| != d({x},{y})"
    for x in range(n):
        u = BooleanWord(frozenset({x}), n)
        if graev_norm_fast(u, ws.aug).value != ws.aug.d(x, ws.aug.zero):
            return False, f"||{{{x}}}|| != d({x}, zero)"
    return True, f"{n * (n - 1) // 2} pairs and {n} singletons"


def _check_claim7(ws: Workspace) -> tuple[bool, str]:
    pool = [u for u in _word_pool(ws.space.size) if not u.is_zero()]
    for u in pool:
        supp = sorted(support(u))
        lower = min(
            (ws.aug.d(a, b) for a, b in itertools.combinations(supp, 2)),
            default=Fraction(0),
        )
        if graev_norm_fast(u, ws.aug).value < lower:
            return False, f"lower bound fails at {sorted(u.points)}"
    return True, f"{len(pool)} nonzero words"


def _l_eps_points(part: Partition) -> tuple[int, ...]:
    """Every point if there are at most L_EPS_POINTS; otherwise that many
    dealt in turn from at most three blocks, blocks of two or more points
    first, so the level keeps in-block pairs and, where it has two blocks,
    cross-block pairs."""
    if part.ground <= L_EPS_POINTS:
        return tuple(range(part.ground))
    blocks = sorted(part.blocks, key=lambda b: len(b) < 2)[:3]
    dealt = itertools.chain.from_iterable(itertools.zip_longest(*map(sorted, blocks)))
    return tuple(sorted(itertools.islice((p for p in dealt if p is not None), L_EPS_POINTS)))


def _check_l_eps(ws: Workspace) -> tuple[bool, str]:
    """The kernel identity at every chain level, on words over a bounded
    set of the level's points, so the row's cost does not grow with n.
    Levels run coarse to fine, so each level's closure is searched inside
    the closure of the last coarser level on the same points."""
    cap = 4
    count = 0
    used = []
    words: dict[tuple[int, ...], list] = {}  # levels often share their points
    inside: dict[tuple[int, ...], list] = {}  # the last closure on those points
    for part in ws.chains["balls"].partitions:
        pts = _l_eps_points(part)
        used.append(pts)
        if pts not in words:
            words[pts] = inside[pts] = _raw_words(pts, cap)
        inside[pts] = closed = deletion_closure(part, inside[pts])
        if _kernel(pts, cap, part) != closed:
            blocks = [sorted(ws.space.names[p] for p in b) for b in part.blocks]
            return False, f"kernel mismatch at partition {blocks}"
        count += len(words[pts])
    detail = f"{count} word/partition checks at cap {cap}"
    if ws.space.size > L_EPS_POINTS:
        names = ws.space.names
        detail += " on points per level: " + "; ".join(" ".join(names[p] for p in pts) for pts in used)
    return True, detail


def _check_t_AE2(ws: Workspace) -> tuple[bool, str]:
    vals = sorted(v for v in ws.space.values() if v < 1)
    grid = [Fraction(0)] + vals + [Fraction(1)]
    thresholds = [
        (a + b) / 2 for a, b in zip(grid, grid[1:]) if a != b
    ]
    pool = _word_pool(ws.space.size)
    for eps in thresholds:
        rep = ball_equals_subgroup(ws.aug, eps, pool)
        if not rep.passed:
            return False, f"ball/subgroup mismatch at eps = {format_rational(eps)}"
    return True, f"{len(thresholds)} thresholds x {len(pool)} words"


def _check_fbaire(ws: Workspace) -> tuple[bool, str]:
    n = ws.space.size
    if n < 2:
        return True, "skipped: needs two points"
    w = AbelianWord(((0, 2), (1, -2)), n)  # its coset length is 0 at any level joining x0, x1
    eps = ws.chains["balls"].separating_level(w.supp())  # the discrete level at worst
    least = coset_length(w, eps)
    if least <= 3:
        return False, "coset met the length ball"
    return True, f"least length {least} in the coset > 3, so it misses B_3 ({ball_size(3, n)} words)"


def _check_sbaire(ws: Workspace) -> tuple[bool, str]:
    n = ws.space.size
    if n < 2:
        return True, "skipped: needs two points"
    # X is the indiscrete level's one block: bn_interior_witness takes x outside
    # supp(w), which exists iff supp(w) != X, and signs x - y so no letter
    # cancels, so lh rises by 2.  Only n <= 2 has full-support words in B_2.
    return True, f"{ball_size(2, n) - 2**n * comb(2, n)} interior witnesses"


def _check_duality(ws: Workspace) -> tuple[bool, str]:
    n = min(ws.space.size, 4)
    z2 = FiniteGroupTable.cyclic(2)
    count = 0
    for images in itertools.product(range(2), repeat=n):
        universal_extension(images, z2, n)  # raises on any failed identity
        count += 1
    return True, f"{count} maps X -> Z2 extended and verified"


_CHECKS = {
    "claim5": _check_claim5,
    "claim6": _check_claim6,
    "claim7": _check_claim7,
    "l_eps": _check_l_eps,
    "t_AE2": _check_t_AE2,
    "fbaire": _check_fbaire,
    "sbaire": _check_sbaire,
    "duality": _check_duality,
}
CLAIMS = tuple(_CHECKS)


def run_report(ws: Workspace, only: str | None = None) -> dict[str, dict]:
    claims = CLAIMS if only is None else (only,)
    if only is not None and only not in _CHECKS:
        raise PreconditionError(f"unknown claim {shown(only)}; choose from {', '.join(CLAIMS)}")
    rows = {}
    for claim in claims:
        try:
            passed, detail = _CHECKS[claim](ws)
        except PreconditionError as exc:
            passed, detail = False, str(exc)
        rows[claim] = {"passed": passed, "detail": detail}
    return rows
