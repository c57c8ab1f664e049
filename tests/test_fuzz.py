"""The exit-code contract under generated workspaces: 0 on success, 1 only
next to a computed verdict, 2 for input errors, and never a traceback."""
import json
import os
import random
import tempfile

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import random_ultrametric
from nafree.cli import main
from nafree.report import CLAIMS
from nafree.serialize import format_rational

BAD_ENTRIES = (True, False, 1.0, 0.5, -1, "-1/2", "1/0", "x", "", None, [1], {"v": 1})
BAD_NAMES = ("0", 7, None, ["x0"], "x1")  # reserved, not strings, or a duplicate
MUTATIONS = ("entry", "ragged", "name", "short names", "triangle", "asymmetric", "action",
             "chain", "balls chain")


def _workspace(rng, n, mutation):
    """A corpus space as a workspace object, broken by `mutation`."""
    space = random_ultrametric(rng, n)
    names = list(space.names)
    # whole values are spelled as JSON integers or as strings
    dist = [[v.numerator if v.denominator == 1 and rng.random() < 0.5 else format_rational(v)
             for v in row] for row in space.dist]
    obj = {"space": {"points": names, "dist": dist}, "chains": {"auto": "auto"}}
    i, j = rng.randrange(n), rng.randrange(n)
    if mutation == "entry":
        dist[i][j] = rng.choice(BAD_ENTRIES)
    elif mutation == "ragged":
        dist[i].pop()
    elif mutation == "name":
        names[i] = rng.choice(BAD_NAMES)
    elif mutation == "short names":
        names.pop()
    elif mutation == "triangle" and i != j:
        dist[i][j] = dist[j][i] = "8"
    elif mutation == "asymmetric" and i != j:
        dist[i][j] = "3"
    elif mutation == "action":
        perm = rng.sample(names, n)
        if rng.random() > 0.7:
            perm[0] = "nowhere"
        obj["actions"] = {"a": {"perms": [perm]}}
    elif mutation in ("chain", "balls chain"):
        blocks = [rng.sample(names, rng.randint(1, n)) for _ in range(rng.randint(1, 3))]
        # "balls" may only be "auto": under that name the chain is an input error
        name = "balls" if mutation == "balls chain" else "c"
        obj["chains"][name] = {"levels": [{"threshold": rng.choice(["1", 2, "1/2", -1]),
                                           "blocks": blocks}]}
    return obj


def _word(rng, names, group):
    letters = rng.sample(names, rng.randint(0, min(len(names), 5)))
    if rng.random() > 0.9:  # draws lean towards 0, so rare cases sit near 1
        letters.append("nowhere")
    if group == "A":
        return json.dumps({x: rng.choice([-2, -1, 1, 3]) for x in letters})
    if group == "F":
        return json.dumps([x + "'" if rng.random() < 0.5 else x for x in letters])
    return json.dumps(letters)


def _requests(rng, obj, path):
    names = [x for x in obj["space"]["points"] if isinstance(x, str)] or ["x0"]
    norm = ["norm", path, _word(rng, names, "B"), "--check", "--json"]
    if rng.random() > 0.3:
        norm += ["--basepoint", "nowhere" if rng.random() > 0.7 else rng.choice(names)]
    out = [["validate", path], norm]
    for group in "BAF":
        level = rng.choice(["0", "1", "-1", "-2", "9"])
        out.append(["member", path, _word(rng, names, group), "-g", group, "--level", level,
                    "--json"])
    out.append(["report", path, "--only", rng.choice(CLAIMS), "--json"])
    return out


def _has_verdict(argv, stdout):
    """Does the output of a request that exited 1 carry the negative verdict?"""
    if argv[0] == "validate":
        return stdout.startswith("violation: ")
    payload = json.loads(stdout)
    if argv[0] == "norm":
        return payload["oracle"]["agrees"] is False
    if argv[0] == "member":
        return payload["member"] is False
    return not all(row["passed"] for row in payload.values())


def _every_mutation(test):
    """Pin each mutation once, with a seed at which it breaks the workspace,
    so every kind is checked whatever the derandomized draws pick; seed 2
    also gives a valid action and a valid extra chain."""
    for mutation, seed in [(m, 0) for m in MUTATIONS] + [("action", 2), ("chain", 2)]:
        test = example(n=5, mutation=mutation, rng=random.Random(seed))(test)
    return test


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(n=st.integers(1, 24), mutation=st.one_of(st.just("none"), st.sampled_from(MUTATIONS)),
       rng=st.randoms(use_true_random=False))
@_every_mutation
def test_exit_code_contract(n, mutation, rng):
    obj = _workspace(rng, n, mutation)
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ws.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        for argv in _requests(rng, obj, path):
            res = runner.invoke(main, argv)
            assert res.exception is None or isinstance(res.exception, SystemExit), (
                argv, obj, res.exception)
            assert res.exit_code in (0, 1, 2)
            assert "Traceback" not in res.stdout + res.stderr
            if res.exit_code == 2:
                assert res.stderr.startswith("input error: ")
            if res.exit_code == 1:
                assert _has_verdict(argv, res.stdout), (argv, obj, res.stdout)
