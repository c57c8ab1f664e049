"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import itertools
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nafree import boolean, freegroup  # noqa: E402
from nafree.freegroup import FreeWord, SymmetrizedSpace  # noqa: E402
from nafree.spaces import UltraMetricSpace, ball_partition, extend_with_zero  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_generator_is_deterministic_for_a_seed():
    for seed in range(4):
        a = gen.random_space(random.Random(seed), 48, 6)
        b = gen.random_space(random.Random(seed), 48, 6)
        assert gen.workspace_json(a) == gen.workspace_json(b)
        assert a.stats() == {"n": 48, "distinct_distances": 6, "chain_depth": 7}
    assert (gen.random_space(random.Random(1), 48, 6).dist
            != gen.random_space(random.Random(2), 48, 6).dist)
    shape = gen.clustered_space(random.Random(4), (3, 2, 2))
    assert gen.workspace_json(shape) == gen.workspace_json(
        gen.clustered_space(random.Random(4), (3, 2, 2)))
    assert shape.stats() == {"n": 7, "distinct_distances": 2, "chain_depth": 3}
    assert (gen.symmetrized_matrix(random.Random(3), (2, 2))
            == gen.symmetrized_matrix(random.Random(3), (2, 2)))


def test_generated_spaces_are_valid_and_blocks_match():
    rng = random.Random(7)
    for n, depth in ((6, 2), (9, 3), (16, 4)):
        g = gen.random_space(rng, n, depth)
        space = UltraMetricSpace(g.dist, g.names)  # validates the strong triangle
        for t in g.values:
            assert reference.partition(g, t)[0] == [sorted(b) for b in ball_partition(space, t).blocks]
        a, b = g.swap_pair()
        assert all(g.dist[a][c] == g.dist[b][c] for c in range(n) if c not in (a, b))
    for _ in range(5):
        dbar = SymmetrizedSpace(3, gen.symmetrized_matrix(rng, (2, 2)))
        assert freegroup.check_grau_conditions(dbar).ok


def test_reference_norm_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(3):
        g = gen.random_space(rng, 12, 4)
        aug = extend_with_zero(UltraMetricSpace(g.dist, g.names))
        for size in range(1, 9):
            pts = frozenset(rng.sample(range(12), size))
            u = boolean.BooleanWord(pts, 12)
            assert boolean.graev_norm_bruteforce(u, aug).value == reference.graev_norm(g, pts)


def _reduced_words(n: int, max_len: int):
    for length in range(max_len + 1):
        for letters in itertools.product([(p, s) for p in range(n) for s in (1, -1)],
                                         repeat=length):
            if all(a != (b[0], -b[1]) for a, b in zip(letters, letters[1:])):
                yield letters


def test_delta_reference_matches_bruteforce():
    rng = random.Random(5)
    spaces = [workloads._discrete_dbar(2), workloads._two_scale_dbar()]
    spaces += [(3, gen.symmetrized_matrix(rng, (2, 2))) for _ in range(2)]
    for n, matrix in spaces:
        dbar = SymmetrizedSpace(n, matrix)
        e = FreeWord((), n)
        for letters in _reduced_words(n, 4 if n == 2 else 3):
            w = FreeWord(letters, n)
            assert (freegroup.graev_delta_bruteforce(e, w, dbar)
                    == reference.graev_delta(dbar.dist, n, letters))


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench" / "tests" / request.node.name.replace("[", "-").rstrip("]")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _loop(wl, traced: bool):
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        return workloads.run_loop(wl.ops(tracer), 0, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()


def _workload(name: str, workdir):
    wl = workloads.WORKLOADS[name](3, ROOT, workdir)
    wl.setup()
    wl.prepare()
    return wl


def test_planted_wrong_answer_is_counted(workdir, monkeypatch):
    real = freegroup.graev_delta_bruteforce

    def planted(u, v, dbar, *args, **kwargs):  # wrong whenever u is e
        value = real(u, v, dbar, *args, **kwargs)
        return value + 1 if u.is_identity() else value

    wl = _workload("fdelta", workdir)
    monkeypatch.setattr(freegroup, "graev_delta_bruteforce", planted)
    loop = _loop(wl, False)
    wrong = sum(1 for op in wl.pairs for u in (op[1], op[2]) if u.is_identity())
    assert loop.failed == wrong > 0
    assert 0 < loop.failed / loop.attempted < 1


def test_planted_wrong_membership_is_counted(workdir, monkeypatch):
    wl = _workload("query", workdir)
    real = boolean.eps_subgroup_membership
    monkeypatch.setattr(boolean, "eps_subgroup_membership", lambda u, e: not real(u, e))
    loop = _loop(wl, False)
    assert loop.failed == sum(1 for op in wl.queries if op.kind == "B")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_runs_give_identical_answers(name, workdir):
    wl = _workload(name, workdir)
    plain, traced = _loop(wl, False), _loop(wl, True)
    assert plain.failed == traced.failed == 0
    assert plain.answers == traced.answers


def test_tail_has_ten_samples_above():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0, 10)


def test_fails_without_the_package(workdir):
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fdelta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
