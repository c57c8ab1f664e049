"""The `report` property suite: what its rows compare, and that the suite
and the enumerators it uses leave no cyclic garbage behind."""
import gc
import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from importlib import resources

from click.testing import CliRunner

from conftest import discrete_dbar
from corpus import random_ultrametric
from nafree import freegroup, report
from nafree.abelian import AbelianWord, coset_length, enumerate_Bn
from nafree.boolean import BooleanWord, graev_norm_bruteforce
from nafree.freegroup import FreeWord, graev_delta_bruteforce, v_psi_ball
from nafree.oracles import abelian_membership_search
from nafree.report import CLAIMS, run_report
from nafree.cli import main
from nafree.serialize import Workspace, format_rational, load_workspace
from nafree.spaces import Partition, ball_chain, extend_with_zero

WORKSPACE = str(resources.files("nafree") / "data" / "workspace.json")


def _corpus_workspace(rng, size):
    space = random_ultrametric(rng, size)
    return Workspace(space, extend_with_zero(space), {"balls": ball_chain(space)}, {})


def test_no_reference_cycles():
    # a self-referencing closure or a memo that refers back to its search
    # leaves garbage that only the cycle collector frees, so peak memory
    # follows the collector's timing
    rng = random.Random(7)
    workspaces = [load_workspace(WORKSPACE), _corpus_workspace(rng, 3), _corpus_workspace(rng, 5)]
    indiscrete = Partition.indiscrete(3)
    ten = extend_with_zero(random_ultrametric(rng, 10))
    six = FreeWord(((0, 1), (1, 1), (2, -1), (0, 1), (1, -1), (2, 1)), 3)

    def delta_on_an_empty_cache(u, v, dbar):
        freegroup._trivial_sequences.cache.clear()
        return graev_delta_bruteforce(u, v, dbar)

    calls = [(f"{claim} on {ws.space.size} points", run_report, (ws, claim))
             for ws in workspaces for claim in CLAIMS]
    calls += [
        ("enumerate_Bn", enumerate_Bn, (3, 3)),
        ("v_psi_ball", v_psi_ball, (indiscrete, 4)),
        ("abelian_membership_search", abelian_membership_search,
         (AbelianWord(((0, 2), (1, -1), (2, -1)), 3), indiscrete)),
        ("graev_norm_bruteforce", graev_norm_bruteforce,
         (BooleanWord(frozenset(range(10)), 10), ten)),
        ("graev_delta_bruteforce", delta_on_an_empty_cache, (FreeWord((), 3), six, discrete_dbar(3))),
    ]
    gc.collect()
    gc.disable()
    try:
        for name, fn, args in calls:
            fn(*args)
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_l_eps_row_fails_on_a_wrong_kernel(monkeypatch):
    ws = load_workspace(WORKSPACE)
    assert run_report(ws, "l_eps")["l_eps"]["passed"]
    # the quotient onto one block: its kernel is all of the even words,
    # larger than the closure at every finer level of the ball chain
    monkeypatch.setattr(
        report,
        "_kernel",
        lambda points, max_len, eps: freegroup._kernel(points, max_len, Partition.indiscrete(eps.ground)),
    )
    row = run_report(ws, "l_eps")["l_eps"]
    assert not row["passed"]
    assert row["detail"].startswith("kernel mismatch at partition")


def test_l_eps_failure_names_the_blocks_sorted(monkeypatch):
    real = freegroup._kernel

    def planted(points, max_len, eps):  # one word short at the two-block level
        words = real(points, max_len, eps)
        return words[:-1] if len(eps.blocks) == 2 else words

    monkeypatch.setattr(report, "_kernel", planted)
    detail = "kernel mismatch at partition [['p', 'q'], ['r', 's']]"
    assert run_report(load_workspace(WORKSPACE), "l_eps")["l_eps"] == {"passed": False, "detail": detail}
    res = CliRunner().invoke(main, ["report", WORKSPACE, "--only", "l_eps"])
    assert (res.exit_code, res.stdout) == (1, f"l_eps  FAIL  {detail}\n")


def test_l_eps_row_fails_on_a_wrong_closure(monkeypatch):
    ws = load_workspace(WORKSPACE)
    # an oracle that closes every even-length word agrees with no quotient
    # but the one onto a single block, which no finer level is
    monkeypatch.setattr(
        report, "deletion_closure", lambda eps, words: [w for w in words if len(w) % 2 == 0]
    )
    row = run_report(ws, "l_eps")["l_eps"]
    assert not row["passed"]
    assert row["detail"].startswith("kernel mismatch at partition")


def test_claim5_fails_on_a_norm_that_breaks_the_ultra_inequality(monkeypatch):
    ws = load_workspace(WORKSPACE)
    assert run_report(ws, "claim5")["claim5"] == {"passed": True, "detail": "16 words, all pairs"}
    real = report.graev_norm_fast

    def planted(u, space):
        cert = real(u, space)
        return replace(cert, value=Fraction(100)) if u.points == {0, 1} else cert

    monkeypatch.setattr(report, "graev_norm_fast", planted)
    row = run_report(ws, "claim5")["claim5"]
    assert row == {"passed": False, "detail": "ultra inequality fails at [0], [1]"}


def test_fbaire_row_reads_the_separating_level():
    # w = 2x0 - 2x1 has coset length 4 where x0, x1 are apart and 0 where
    # they share a block, so a row reading the coarsest level would fail
    ws = load_workspace(WORKSPACE)
    chain = ws.chains["balls"]
    w = AbelianWord(((0, 2), (1, -2)), ws.space.size)
    assert coset_length(w, chain.separating_level(w.supp())) == 4
    assert coset_length(w, chain.partitions[0]) == 0
    assert run_report(ws, "fbaire")["fbaire"] == {
        "passed": True, "detail": "least length 4 in the coset > 3, so it misses B_3 (129 words)"}


def test_report_runs_every_claim_in_order():
    rows = run_report(load_workspace(WORKSPACE))
    assert tuple(rows) == CLAIMS == (
        "claim5", "claim6", "claim7", "l_eps", "t_AE2", "fbaire", "sbaire", "duality"
    )


def test_report_on_24_points_ends_with_a_verdict(tmp_path):
    # l_eps checks each level on at most six points, so all 24 points no
    # longer mean (2 * 24)^4 words per level; up to six points it uses all
    bundled = run_report(load_workspace(WORKSPACE), "l_eps")["l_eps"]
    assert bundled == {"passed": True, "detail": "9603 word/partition checks at cap 4"}
    six = _corpus_workspace(random.Random(6), 6)
    count = len(six.chains["balls"]) * len(freegroup._raw_words(range(6), 4))
    assert run_report(six, "l_eps")["l_eps"]["detail"] == f"{count} word/partition checks at cap 4"
    space = random_ultrametric(random.Random(24), 24)
    dist = [[format_rational(v) for v in row] for row in space.dist]
    path = tmp_path / "ws24.json"
    path.write_text(json.dumps({"space": {"points": list(space.names), "dist": dist}}))
    res = CliRunner().invoke(main, ["report", str(path), "--json"])
    assert res.exit_code == 0, res.output
    rows = json.loads(res.stdout)
    assert sorted(rows) == sorted(CLAIMS) and all(row["passed"] for row in rows.values())
    found = re.fullmatch(r"\d+ word/partition checks at cap 4 on points per level: (.*)",
                         rows["l_eps"]["detail"])
    chain = ball_chain(space)
    levels = found.group(1).split("; ")
    assert len(levels) == len(chain)
    for names, part in zip(levels, chain.partitions):
        points = [space.index(name) for name in names.split()]
        assert 2 <= len(points) <= 6 and len({part.block_index(p) for p in points}) <= 3
