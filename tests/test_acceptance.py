"""Acceptance suite: the fifteen package-level criteria.

Each test prints a single summary line on success; a failure shows up as a
plain pytest assertion.  The whole module is budgeted to finish well under
sixty seconds.
"""
import itertools
import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import pytest
from click.testing import CliRunner

from conftest import all_boolean_words, all_partitions, aug, discrete_dbar, make_space
from corpus import VALUES, corpus, random_ultrametric
from nafree.abelian import (
    AbelianWord,
    ab_add,
    ab_eps_membership,
    ab_negate,
    ball_size,
    bn_avoidance_check,
    bn_interior_witness,
    coset_length,
    enumerate_Bn,
    lh,
)
from nafree.boolean import (
    BooleanWord,
    ball_equals_subgroup,
    bool_add,
    closedness_witness,
    eps_subgroup_membership,
    graev_norm_bruteforce,
    graev_norm_fast,
    lift_action,
    support,
)
from nafree.cli import main
from nafree.duality import universal_extension
from nafree.errors import InputError, PreconditionError
from nafree.finite_groups import FiniteGroupTable, IsometricAction
from nafree import freegroup
from nafree.freegroup import (
    FreeWord,
    GrauCheck,
    SymmetrizedSpace,
    check_grau_conditions,
    eps_tilde_membership,
    fg_invert,
    fg_multiply,
    _trivial_sequences,
    graev_delta_bruteforce,
    v_psi_ball,
    word_alphabet,
)
from nafree.oracles import (
    abelian_membership_search,
    ball_partition_scan,
    boolean_membership_closure,
    strong_triangle_scan,
)
from nafree.report import REPORT_WORD_LIMIT, run_report
from nafree.serialize import Workspace
from nafree.spaces import (
    MetricViolation,
    Partition,
    UltraMetricSpace,
    _spanning_tree,
    ball_chain,
    ball_partition,
    combine_pseudometrics,
    extend_with_zero,
    strict_ball_partition,
    validate_ultrametric,
)

WORKSPACE = str(resources.files("nafree") / "data" / "workspace.json")


def _announce(cid, detail):
    print(f"\nACCEPTANCE {cid}: pass ({detail})")


def _norm_table(space):
    ext = aug(space)
    return ext, {u: graev_norm_fast(u, ext).value for u in all_boolean_words(space.size)}


# --- 1. fast norm equals brute force on 500 random spaces ------------------


def test_acceptance_01_fast_norm_oracle():
    checked = 0
    for space in corpus(seed=1001, count=500, max_size=8):
        ext = aug(space)
        for u in all_boolean_words(space.size):
            fast = graev_norm_fast(u, ext)
            brute = graev_norm_bruteforce(u, ext)
            assert fast.value == brute.value, (space.dist, sorted(u.points))
            checked += 1
    _announce(1, f"{checked} words across 500 random spaces, exact agreement")


# --- 2. ultra-norm axioms (Claim 5) ----------------------------------------


def test_acceptance_02_ultranorm_axioms():
    pairs = 0
    for space in corpus(seed=1002, count=80, max_size=5):
        ext, norms = _norm_table(space)
        for u, val in norms.items():
            assert (val == 0) == u.is_zero()
        for u, v in itertools.product(norms, repeat=2):
            assert norms[bool_add(u, v)] <= max(norms[u], norms[v])
            pairs += 1
    _announce(2, f"{pairs} word pairs, zero-iff and ultra inequality")


# --- 3. isometry (Claim 6) and lower bound (Claim 7) -----------------------


def test_acceptance_03_isometry_and_lower_bound():
    checks = 0
    for space in corpus(seed=1003, count=80, max_size=5):
        ext, norms = _norm_table(space)
        n = space.size
        for x, y in itertools.combinations(range(n), 2):
            u = BooleanWord(frozenset({x, y}), n)
            assert norms[u] == space.d(x, y)
        for u, val in norms.items():
            if u.is_zero():
                continue
            supp = support(u)
            floor = min(ext.d(a, b) for a, b in itertools.combinations(sorted(supp), 2))
            assert val >= floor
            checks += 1
    _announce(3, f"{checks} nonzero words over 80 spaces")


# --- 4. ball equals subgroup (t:AE(2)) -------------------------------------


def test_acceptance_04_ball_equals_subgroup():
    thresholds = 0
    for space in corpus(seed=1004, count=60, max_size=5):
        ext = aug(space)
        pool = list(all_boolean_words(space.size))
        grid = [Fraction(0)] + sorted(v for v in set(space.values()) if v < 1) + [Fraction(1)]
        for lo, hi in zip(grid, grid[1:]):
            if lo == hi:
                continue
            eps = (lo + hi) / 2
            assert ball_equals_subgroup(ext, eps, pool).passed
            thresholds += 1
    _announce(4, f"{thresholds} thresholds, exhaustive word pools")


# --- 5. membership oracles (Boolean parity, abelian class sums) ------------


def test_acceptance_05_membership_oracles():
    bool_checks = ab_checks = 0
    for n in range(1, 5):
        words = [w for w in all_boolean_words(n) if len(w.points) <= 5]
        ab_words = enumerate_Bn(4, n)
        for part in all_partitions(n):
            for u in words:
                assert eps_subgroup_membership(u, part) == boolean_membership_closure(u, part)
                bool_checks += 1
            for w in ab_words:
                assert ab_eps_membership(w, part) == abelian_membership_search(w, part)
                ab_checks += 1
    _announce(5, f"{bool_checks} Boolean and {ab_checks} abelian oracle agreements")


# --- 6. kernel identity (free group) ---------------------------------------


def test_acceptance_06_kernel_identity():
    checks = 0
    for n in (1, 2, 3):
        words = [FreeWord(w, n) for w in freegroup._raw_words(range(n), 6)]
        for part in all_partitions(n):
            ball = v_psi_ball(part, 6)
            for w in words:
                assert (w in ball) == eps_tilde_membership(w, part)
                checks += 1
    _announce(6, f"{checks} word/partition comparisons at cap 6")


# --- 7. closedness of the point image --------------------------------------


def test_acceptance_07_closedness():
    witnesses = 0
    spaces = corpus(seed=1007, count=15, max_size=5)
    for space in spaces:
        chain = ball_chain(space)
        n = space.size
        for u in all_boolean_words(n):
            if len(u.points) == 1:
                continue
            part = closedness_witness(u, chain)
            assert part is not None
            for x in range(n):
                assert not eps_subgroup_membership(bool_add(u, BooleanWord(frozenset({x}), n)), part)
            witnesses += 1
    _announce(7, f"{witnesses} witnesses, each re-verified pointwise")


# --- 8. noncompleteness lemmas at finite scale -----------------------------


def test_acceptance_08_noncompleteness():
    rng = random.Random(1008)
    avoidance = 0
    while avoidance < 50:
        n_points = rng.randint(2, 4)
        n = rng.randint(1, 4)
        coeffs = {p: rng.randint(-3, 3) for p in range(n_points)}
        w = AbelianWord.from_dict(coeffs, n_points)
        if not n < lh(w) <= 6:
            continue
        space = random_ultrametric(rng, n_points)
        assert bn_avoidance_check(w, n, ball_chain(space)) is True
        assert ball_size(n, n_points) == len(enumerate_Bn(n, n_points))
        avoidance += 1
    interior = 0
    for n_points in (2, 3, 4):
        part = Partition.indiscrete(n_points)
        for n in range(1, 5):
            for w in enumerate_Bn(n, n_points):
                if w.supp() >= set(range(n_points)):
                    continue  # no generator point outside the support
                v = bn_interior_witness(w, n, part)
                assert lh(bool_like := ab_add_lh(w, v)) == lh(w) + 2
                interior += 1
    _announce(8, f"{avoidance} avoidance checks, {interior} interior witnesses")


def ab_add_lh(w, v):
    from nafree.abelian import ab_add

    return ab_add(w, v)


# --- 9. duality: universal extension and uniqueness ------------------------


def _hom_tables_full(group, ground):
    """Every function V* -> G that is a homomorphism, by raw enumeration."""
    size = 1 << ground
    out = []
    for table in itertools.product(range(group.order), repeat=size):
        if table[0] != group.identity:
            continue
        if all(
            table[a ^ b] == group.op(table[a], table[b])
            for a, b in itertools.combinations_with_replacement(range(size), 2)
        ):
            out.append(table)
    return out


def _hom_tables_pruned(group, ground):
    """Candidate maps V* -> G pruned by the homomorphism constraint: the
    value at a mask is forced by the values on the evaluation basis."""
    size = 1 << ground
    out = []
    for basis in itertools.product(range(group.order), repeat=ground):
        table = [group.identity] * size
        for s in range(1, size):
            low = s & -s
            table[s] = group.op(table[s ^ low], basis[low.bit_length() - 1])
        out.append(tuple(table))
    return out


def test_acceptance_09_duality():
    z2 = FiniteGroupTable.cyclic(2)
    z22 = FiniteGroupTable.boolean_power(2)
    checked = 0
    for ground in (1, 2, 3, 4):
        size = 1 << ground
        for group in (z2, z22):
            homs = _hom_tables_pruned(group, ground)
            if group.order**size <= 4096:
                # tiny cases: raw enumeration of every function V* -> G
                # confirms the pruned family is exactly the homomorphisms
                assert sorted(homs) == sorted(_hom_tables_full(group, ground))
            for f in itertools.product(range(group.order), repeat=ground):
                ext = universal_extension(f, group, ground)
                ext_table = tuple(ext.apply(s) for s in range(size))
                matching = [
                    h for h in homs if all(h[1 << x] == f[x] for x in range(ground))
                ]
                assert len(matching) == 1
                assert matching[0] == ext_table
                checked += 1
    _announce(9, f"{checked} maps f: X -> G extended, uniqueness verified")


# --- 10. isometric action lifting ------------------------------------------


def _isometry_group(space):
    n = space.size
    isos = [
        p
        for p in itertools.permutations(range(n))
        if all(
            space.d(p[x], p[y]) == space.d(x, y)
            for x, y in itertools.combinations(range(n), 2)
        )
    ]
    table, elems = FiniteGroupTable.from_permutations(isos)
    return IsometricAction(table, space, elems)


def test_acceptance_10_action_lifting():
    """Additivity holds for every isometry of X; norm preservation holds
    exactly for the isometries of the augmented space (the zero-extension
    distance depends on the basepoint, so a basepoint-moving isometry of X
    shifts some singleton norm -- the sensitivity is asserted both ways)."""
    checks = preserved_groups = 0
    spaces = [make_space([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]])]
    spaces += corpus(seed=1010, count=6, max_size=5)
    for space in spaces:
        act = _isometry_group(space)
        ext = aug(space)
        norms = {u: graev_norm_fast(u, ext).value for u in all_boolean_words(space.size)}
        words = list(norms)
        n = space.size
        for g in range(act.group.order):
            fixes_zero_distances = all(
                ext.d(act.apply(g, x), ext.zero) == ext.d(x, ext.zero) for x in range(n)
            )
            if fixes_zero_distances:
                for u in words:
                    assert norms[lift_action(act, g, u)] == norms[u]
                preserved_groups += 1
            else:
                assert any(norms[lift_action(act, g, u)] != norms[u] for u in words)
            for u, v in itertools.product(words, repeat=2):
                assert lift_action(act, g, bool_add(u, v)) == bool_add(
                    lift_action(act, g, u), lift_action(act, g, v)
                )
                checks += 1
    _announce(
        10,
        f"{checks} additivity checks; norm invariance characterized over "
        f"{preserved_groups} augmented-space isometries",
    )


# --- 11. Graev delta on the free group -------------------------------------


def _dbar_two_scale():
    # two generators at distance 1/2, everything else at distance 1
    n = 2
    size = 2 * n + 1
    rows = [[Fraction(1)] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = Fraction(0)
    for a, b in ((0, 1), (2, 3)):
        rows[a][b] = rows[b][a] = Fraction(1, 2)
    return SymmetrizedSpace(n, tuple(tuple(r) for r in rows))


def test_acceptance_11_graev_delta():
    e_checks = tri_checks = bi_checks = alpha_checks = 0
    for dbar in (discrete_dbar(1), discrete_dbar(2), _dbar_two_scale()):
        n = dbar.n
        assert check_grau_conditions(dbar).ok
        words = [FreeWord(w, n) for w in freegroup._raw_words(range(n), 3)]
        cache = {}

        def d(u, v, extra=()):
            key = (fg_multiply(fg_invert(u), v).letters, tuple(extra))
            if key not in cache:
                cache[key] = graev_delta_bruteforce(u, v, dbar, extra_letters=extra)
            return cache[key]

        e = FreeWord((), n)
        for x, y in itertools.product(range(n), repeat=2):
            u = FreeWord(((x, 1),), n)
            v = FreeWord(((y, 1),), n)
            assert d(u, v) == dbar.d(x, y)
            assert d(u, e) == dbar.d(x, dbar.e)
            e_checks += 1
        m = len(words)
        mat = [[d(u, v) for v in words] for u in words]
        for i in range(m):
            row_i = mat[i]
            for j in range(m):
                row_j = mat[j]
                dij = row_i[j]
                for k in range(m):
                    assert row_i[k] <= dij or row_i[k] <= row_j[k]
                    tri_checks += 1
        letters = [FreeWord(((p, s),), n) for p in range(n) for s in (1, -1)]
        for i, u in enumerate(words):
            for j, v in enumerate(words):
                if len(fg_multiply(fg_invert(u), v)) > 4:
                    continue  # conjugated difference must stay within the cap
                base = mat[i][j]
                for t in letters:
                    assert d(fg_multiply(t, u), fg_multiply(t, v)) == base
                    assert d(fg_multiply(u, t), fg_multiply(v, t)) == base
                    bi_checks += 1
        if n == 2:
            # restricted vs one-letter-extended alphabet on single-generator words
            one = [FreeWord(w, 1) for w in freegroup._raw_words(range(1), 3)]
            for u, v in itertools.product(one, repeat=2):
                uu = FreeWord(u.letters, n)
                vv = FreeWord(v.letters, n)
                assert d(uu, vv) == d(uu, vv, extra=(1,))
                alpha_checks += 1
    _announce(
        11,
        f"{e_checks} extension, {tri_checks} triangle, {bi_checks} invariance, "
        f"{alpha_checks} alphabet-stability checks",
    )


# --- 12. deterministic reports ---------------------------------------------


def test_acceptance_12_determinism():
    runner = CliRunner()
    a = runner.invoke(main, ["report", WORKSPACE, "--json"])
    b = runner.invoke(main, ["report", WORKSPACE, "--json"])
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.output_bytes == b.output_bytes
    json.loads(a.output)  # well-formed machine output
    _announce(12, f"byte-identical {len(a.output_bytes)}-byte reports")


# --- 13. the spanning-tree strong-triangle check equals the triple scan ----


def _random_symmetric(rng, n, values):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = rows[j][i] = rng.choice(values)
    return tuple(tuple(r) for r in rows)


def _acceptance_13_matrices(rng):
    ties = tuple(Fraction(v) for v in (1, 2, 3))
    mats = [_random_symmetric(rng, rng.randint(1, 8), ties) for _ in range(3000)]
    for space in corpus(1313, 100):
        mats.append(space.dist)
        mats += [extend_with_zero(replace(space, basepoint=x0)).dist for x0 in range(space.size)]
    return mats


def test_acceptance_13_strong_triangle_oracle():
    rng = random.Random(13)
    mats = _acceptance_13_matrices(rng)
    violators = 0
    for m in mats:
        bad = validate_ultrametric(m)
        assert (bad is None) == (strong_triangle_scan(m) is None), m
        if bad is not None:
            violators += 1
            i, j, k = bad.points
            assert bad.kind == "strong_triangle" and len({i, j, k}) == 3
            assert m[i][k] > max(m[i][j], m[j][k])
    # ultra-pseudometrics: distinct points may be at distance 0
    pseudo_ties = tuple(Fraction(v, 2) for v in (0, 1, 2))
    rejected = 0
    for _ in range(1000):
        m = _random_symmetric(rng, rng.randint(1, 8), pseudo_ties)
        try:
            combine_pseudometrics([m])
        except InputError:
            rejected += 1
            assert strong_triangle_scan(m) is not None, m
        else:
            assert strong_triangle_scan(m) is None, m
    assert violators and rejected
    _announce(
        13,
        f"{len(mats)} matrices, {violators} violators with genuine witnesses; "
        f"1000 pseudometrics, {rejected} rejected",
    )


# --- 14. decisions on distance ranks equal the exact-value definitions -----


def _validate_on_fractions(rows):
    """The axioms checked on the Fraction entries themselves, in the order
    and words of `validate_ultrametric`: the reference for its rank checks."""
    m = tuple(tuple(Fraction(v) for v in row) for row in rows)
    n = len(m)
    for row in m:
        if len(row) != n:
            raise InputError("matrix is not square")
    for i in range(n):
        for j in range(n):
            if m[i][j] < 0:
                raise InputError(f"negative entry at ({i},{j})")
    for i in range(n):
        if m[i][i] != 0:
            return MetricViolation("diagonal", (i,), f"d({i},{i}) = {m[i][i]} != 0")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                return MetricViolation(
                    "symmetry", (i, j), f"d({i},{j}) = {m[i][j]} != {m[j][i]} = d({j},{i})"
                )
    bad = _spanning_tree(m)[0]
    if bad is not None:
        i, j, k = bad
        bound = max(m[i][j], m[j][k])
        return MetricViolation(
            "strong_triangle", bad, f"d({i},{k}) = {m[i][k]} > max(d({i},{j}), d({j},{k})) = {bound}"
        )
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] == 0:
                return MetricViolation("positivity", (i, j), f"d({i},{j}) = 0 for {i} != {j}")
    return None


def _verdict(check, m):
    try:
        return check(m)
    except InputError as exc:
        return f"input error: {exc}"


def _broken(rng, m):
    """`m` with one entry made negative, asymmetric, zero off the diagonal,
    or nonzero on it."""
    rows = [list(row) for row in m]
    n = len(rows)
    i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
    kind = rng.choice(("negative", "asymmetric", "zero", "diagonal"))
    if kind == "negative":
        rows[i][j] = rows[j][i] = Fraction(-rng.randint(1, 3), 2)
    elif kind == "asymmetric":
        rows[i][j] += Fraction(rng.choice((-1, 1)), 2)
    elif kind == "zero":
        rows[i][j] = rows[j][i] = Fraction(0)
    else:
        rows[i][i] = Fraction(rng.randint(1, 3))
    return rows


def test_acceptance_14_rank_path():
    """Validation, ball partitions, ball chains and the value list, decided
    on distance ranks, equal their definitions on exact values."""
    rng = random.Random(14)
    mats = _acceptance_13_matrices(random.Random(13))
    mats += [_broken(rng, m) for m in rng.sample(mats, 1500)]
    kinds = set()
    for m in mats:
        want = _verdict(_validate_on_fractions, m)
        assert _verdict(validate_ultrametric, m) == want, m
        kinds.add(want.kind if isinstance(want, MetricViolation) else want and want[:20])
    assert kinds == {"diagonal", "symmetry", "positivity", "strong_triangle", None,
                     "input error: negativ"}
    spaces = corpus(1414, 150)
    spaces += [
        UltraMetricSpace(extend_with_zero(replace(sp, basepoint=x0)).dist, sp.names + ("z",))
        for sp in spaces[:60]
        for x0 in range(sp.size)
    ]
    radii_checked = 0
    for sp in spaces:
        n = sp.size
        vals = sorted({sp.d(p, q) for p in range(n) for q in range(n) if p != q})
        assert sp.values() == vals
        grid = [Fraction(0)] + vals
        mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
        for r in grid + mids + [grid[-1] + 1]:
            assert ball_partition(sp, r) == ball_partition_scan(sp.dist, r)
            if r > 0:
                assert strict_ball_partition(sp, r) == ball_partition_scan(sp.dist, r, strict=True)
            radii_checked += 1
        assert ball_chain(sp).levels == tuple((v, ball_partition_scan(sp.dist, v)) for v in reversed(grid))
    _announce(
        14,
        f"{len(mats)} matrices validated alike; {len(spaces)} spaces, "
        f"{radii_checked} radii, ball chains and value lists equal the pairwise scan",
    )


# --- 15. the Graev check and delta on ranks equal their Fraction loops -----


def _grau_on_fractions(dbar):
    """The Graev conditions checked on the Fraction entries, in the order and
    words of `check_grau_conditions`: the reference for its rank checks."""
    bad = _validate_on_fractions(dbar.dist)
    if bad is not None:
        return GrauCheck(f"not an ultra-metric: {bad}", False)
    half = list(range(dbar.n)) + [dbar.e]
    for i, j in itertools.product(half, repeat=2):
        ii, ji = dbar.inv_index(i), dbar.inv_index(j)
        if dbar.d(ii, ji) != dbar.d(i, j):
            return GrauCheck(
                f"d(inv {i}, inv {j}) = {dbar.d(ii, ji)} != d({i},{j}) = {dbar.d(i, j)}", False
            )
        if dbar.d(ii, j) != dbar.d(i, ji):
            return GrauCheck(
                f"d(inv {i}, {j}) = {dbar.d(ii, j)} != d({i}, inv {j}) = {dbar.d(i, ji)}", False
            )
    strong = all(
        dbar.d(dbar.inv_index(i), j) == max(dbar.d(i, dbar.e), dbar.d(j, dbar.e))
        for i, j in itertools.product(range(dbar.n), repeat=2)
    )
    return GrauCheck(None, strong)


def _delta_on_fractions(letters, dbar, extra=()):
    """delta(e, w) by the full enumeration of trivial words and paddings,
    with the bottleneck kept as a Fraction: the reference for the ranks."""
    w = FreeWord(letters, dbar.n)
    if w.is_identity():
        return Fraction(0)
    m = len(w)
    target = m + m % 2
    widx = [dbar.letter_index(l) for l in w.letters]
    paddings = []
    for positions in itertools.combinations(range(target), target - m):
        it = iter(widx)
        paddings.append([dbar.e if i in positions else next(it) for i in range(target)])
    best = None
    for t in _trivial_sequences(word_alphabet(w, dbar, extra), target, dbar):
        for seq in paddings:
            cost = Fraction(0)
            for i in range(target):
                v = dbar.dist[seq[i]][t[i]]
                if v > cost:
                    cost = v
                    if best is not None and cost >= best:
                        break
            else:
                if best is None or cost < best:
                    best = cost
    return best


def _symmetrized(space):
    """X, X^-1 and e from a space: d(x^+-, y^+-) = d(x, y), e is the adjoined
    zero, and d(x^-1, y) = max(d(x, e), d(y, e))."""
    ext = extend_with_zero(space)
    n, e = space.size, space.size
    size = 2 * n + 1

    def base(i):
        return n if i == 2 * n else i % n

    rows = [[Fraction(0)] * size for _ in range(size)]
    for i, j in itertools.product(range(size), repeat=2):
        if i != j:
            if (i < n) == (j < n) or 2 * n in (i, j):
                rows[i][j] = ext.d(base(i), base(j))
            else:
                rows[i][j] = max(ext.d(base(i), e), ext.d(base(j), e))
    return rows


def _perturbed(rng, rows, n):
    """`rows` with one off-diagonal entry changed: alone or with its mirror,
    and with or without its image under inversion."""
    rows = [list(r) for r in rows]
    size = len(rows)

    def inv(i):
        return i if i == 2 * n else (i + n) % (2 * n)

    a, b = rng.sample(range(size), 2)
    v = rng.choice(VALUES + (Fraction(3),))
    kind = rng.choice(("one", "mirror", "inversion"))
    rows[a][b] = v
    if kind != "one":
        rows[b][a] = v
    if kind == "inversion":
        rows[inv(a)][inv(b)] = rows[inv(b)][inv(a)] = v
    return rows


def test_acceptance_15_graev_rank_path():
    """The Graev check and delta, decided on distance ranks, equal the
    Fraction loops they replaced."""
    rng = random.Random(15)
    valid = [discrete_dbar(1), discrete_dbar(2), _dbar_two_scale()]
    # the Fraction loop costs about 7 times as much at n = 3 as at n = 2
    sizes = (2,) * 17 + (3,) * 3
    valid += [SymmetrizedSpace(n, _symmetrized(random_ultrametric(rng, n))) for n in sizes]
    perturbed = [
        SymmetrizedSpace(d.n, _perturbed(rng, d.dist, d.n)) for d in valid for _ in range(25)
    ]
    # an ultra-metric in which d(x^-1, y) != d(x, y^-1)
    rows = [list(r) for r in discrete_dbar(2).dist]
    rows[2][1] = rows[1][2] = Fraction(1, 2)
    perturbed.append(SymmetrizedSpace(2, rows))
    outcomes = set()
    for dbar in valid + perturbed:
        want = _grau_on_fractions(dbar)
        assert check_grau_conditions(dbar) == want, dbar.dist
        assert check_grau_conditions(dbar) is check_grau_conditions(dbar)
        text = want.violation or ""
        kind = re.sub(r"\d+", "#", text.split(" =")[0].split(" at ")[0])
        outcomes.add((want.ok, want.strong_pattern, kind))
    assert outcomes == {
        (True, True, ""),
        (True, False, ""),
        (False, False, "d(inv #, #)"),
        (False, False, "d(inv #, inv #)"),
        (False, False, "not an ultra-metric: strong_triangle"),
        (False, False, "not an ultra-metric: symmetry"),
    }, outcomes
    words = 0
    for dbar in valid:
        assert check_grau_conditions(dbar).ok
        n, e = dbar.n, FreeWord((), dbar.n)
        for letters in freegroup._raw_words(range(n), 4):
            w = FreeWord(letters, n)
            assert graev_delta_bruteforce(e, w, dbar) == _delta_on_fractions(letters, dbar)
            words += 1
            missing = [p for p in range(n) if all(q != p for q, _ in letters)]
            if missing and len(letters) <= 3:
                extra = (missing[0],)
                assert (graev_delta_bruteforce(e, w, dbar, extra_letters=extra)
                        == _delta_on_fractions(letters, dbar, extra))
    _announce(
        15,
        f"{len(valid) + len(perturbed)} Graev checks alike ({len(outcomes)} kinds of outcome); "
        f"delta alike on {words} words over {len(valid)} spaces",
    )


def test_acceptance_15_graev_check_runs_once_per_space(monkeypatch):
    calls = []
    original = freegroup.validate_ultrametric

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(freegroup, "validate_ultrametric", counted)
    spaces = [discrete_dbar(2), _dbar_two_scale()]
    bad_rows = [[0, 1, 1], [1, 0, 2], [1, 2, 0]]  # d(x^-1, e) != d(x, e)
    bad = SymmetrizedSpace(1, bad_rows)
    for dbar in spaces:
        words = [FreeWord(w, dbar.n) for w in freegroup._raw_words(range(dbar.n), 2)]
        for u, v in itertools.product(words, repeat=2):
            graev_delta_bruteforce(u, v, dbar)
    for _ in range(3):
        with pytest.raises(PreconditionError):
            graev_delta_bruteforce(FreeWord((), 1), FreeWord((), 1), bad)
    assert calls == [5, 5, 3]


# --- 18. the least length of a coset of <eps> ------------------------------


def test_acceptance_18_coset_length():
    """coset_length(w, eps) <= m exactly when the coset w + <eps> meets B_m,
    decided by enumerating B_m; bn_avoidance_check agrees wherever it
    applies, and the search oracle confirms membership for n <= 3."""
    rng = random.Random(1018)
    balls = {(m, n): enumerate_Bn(m, n) for n in range(1, 5) for m in range(4)}
    words = {n: enumerate_Bn(6, n) for n in range(1, 5)}
    cosets = avoidance = searched = 0
    for space in corpus(seed=1018, count=12, max_size=4):
        n = space.size
        chain = ball_chain(space)
        for _, eps in chain.levels:
            for w in rng.sample(words[n], min(len(words[n]), 12)):
                least = coset_length(w, eps)
                for m in range(4):
                    differences = [ab_add(w, ab_negate(v)) for v in balls[m, n]]
                    met = [ab_eps_membership(u, eps) for u in differences]
                    assert (least <= m) == any(met), (w, m)
                    if lh(w) > m:
                        level = chain.separating_level(w.supp())
                        assert bn_avoidance_check(w, m, chain) == (coset_length(w, level) > m)
                        avoidance += 1
                    if n <= 3 and rng.random() < 0.15:
                        i = rng.randrange(len(differences))
                        assert abelian_membership_search(differences[i], eps) == met[i], (differences[i], eps)
                        searched += 1
                cosets += 1
    for n, m in itertools.product(range(7), range(4)):
        assert ball_size(m, n) == len(enumerate_Bn(m, n))
    _announce(18, f"{cosets} cosets against B_0..B_3, {avoidance} avoidance checks, {searched} searches")


def test_acceptance_18_interior_witness_rule():
    """bn_interior_witness finds a witness for a word of B_2 exactly when
    some block of two or more points has a point outside its support, and
    each witness raises lh by exactly 2; the sbaire row's count, read off
    that rule at the indiscrete level, equals the walk for n = 2..6."""
    rng = random.Random(1118)
    words = {n: enumerate_Bn(2, n) for n in range(1, REPORT_WORD_LIMIT + 1)}

    def witnessed(w, eps):
        try:
            v = bn_interior_witness(w, 2, eps)
        except PreconditionError:
            return False
        assert lh(ab_add(w, v)) == lh(w) + 2, (w, v)
        return True

    checks = 0
    for space in corpus(seed=1118, count=16, max_size=REPORT_WORD_LIMIT):
        for _, eps in ball_chain(space).levels:
            for w in words[space.size]:
                usable = any(len(b) >= 2 and not b <= w.supp() for b in eps.blocks)
                assert witnessed(w, eps) == usable, (w, eps)
                checks += 1
    for n in range(2, REPORT_WORD_LIMIT + 1):
        space = random_ultrametric(rng, n)
        walked = sum(witnessed(w, Partition.indiscrete(n)) for w in words[n])
        ws = Workspace(space, extend_with_zero(space), {"balls": ball_chain(space)}, {})
        row = run_report(ws, "sbaire")["sbaire"]
        assert row == {"passed": True, "detail": f"{walked} interior witnesses"}
    _announce(18, f"{checks} word/level witness checks, sbaire count equals the walk for n = 2..6")
