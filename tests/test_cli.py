"""Command-line interface: exit codes, evidence output and determinism."""
import gc
import importlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

import nafree.spaces
from corpus import corpus, random_ultrametric
from nafree.abelian import ab_eps_membership
from nafree.boolean import DEFAULT_ENUM_CAP, eps_subgroup_membership
from nafree.cli import main
from nafree.finite_groups import IsometricAction
from nafree.report import CLAIMS
from nafree.freegroup import eps_tilde_membership
from nafree.serialize import (
    format_rational,
    load_workspace,
    parse_abelian_word,
    parse_boolean_word,
    parse_free_word,
    parse_space,
)
from nafree.spaces import validate_ultrametric

WORKSPACE = str(resources.files("nafree") / "data" / "workspace.json")


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, obj, name="ws.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_validate_bundled_workspace(runner):
    res = runner.invoke(main, ["validate", WORKSPACE])
    assert res.exit_code == 0
    assert "ok" in res.output


def test_validate_broken_triangle(runner, tmp_path):
    f = write(
        tmp_path,
        {"space": {"points": ["a", "b", "c"], "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}},
    )
    res = runner.invoke(main, ["validate", f])
    assert res.exit_code == 1
    assert "strong_triangle" in res.output


def test_validate_overlapping_partition(runner, tmp_path):
    f = write(
        tmp_path,
        {
            "space": {"points": ["a", "b"], "dist": [[0, 1], [1, 0]]},
            "chains": {"bad": {"levels": [{"threshold": 1, "blocks": [["a", "b"], ["b"]]}]}},
        },
    )
    res = runner.invoke(main, ["validate", f])
    assert res.exit_code == 1


def test_validate_malformed_json(runner, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    res = runner.invoke(main, ["validate", str(p)])
    assert res.exit_code == 2


def test_norm_pair(runner):
    res = runner.invoke(main, ["norm", WORKSPACE, '["p","q"]', "--json"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["value"] == "1/2"


def test_norm_zero_word(runner):
    res = runner.invoke(main, ["norm", WORKSPACE, "[]", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["value"] == "0"


def test_norm_cross_block_with_oracle(runner):
    res = runner.invoke(main, ["norm", WORKSPACE, '["p","r"]', "--check", "--json"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["value"] == "2"
    assert out["oracle"]["agrees"] is True
    assert any("0" not in pair for pair in out["witness"])


NORM_TEXT = "word: ['p', 'q', 'r']\nnorm: 2  (algorithm: fast)\nwitness pairing: [['p', 'q'], ['r', '0']]\n"
NORM_JSON = '{"algorithm":"fast","basepoint":"p",%s"value":"2","witness":[["p","q"],["r","0"]]}\n'
SKIPPED = "|supp(u)| = 4 exceeds enumeration cap 2"
# with the basepoint at r the zero sits at distance 1 from r, so (r, 0) costs 1
MOVED_TEXT = "word: ['p', 'q', 'r']\nnorm: 1  (algorithm: fast)\nwitness pairing: [['p', 'q'], ['r', '0']]\n"
MOVED_JSON = '{"algorithm":"fast","basepoint":"r",%s"value":"1","witness":[["p","q"],["r","0"]]}\n'


@pytest.mark.parametrize(
    "options, text, as_json",
    [
        ([], NORM_TEXT, NORM_JSON % ""),
        (["--check"], NORM_TEXT + "oracle: {'value': '2', 'agrees': True}\n",
         NORM_JSON % '"oracle":{"agrees":true,"value":"2"},'),
        (["--check", "--cap", "2"], NORM_TEXT + f"oracle: {{'skipped': '{SKIPPED}'}}\n",
         NORM_JSON % f'"oracle":{{"skipped":"{SKIPPED}"}},'),
        (["--basepoint", "r"], MOVED_TEXT, MOVED_JSON % ""),
        (["--check", "--basepoint", "r"], MOVED_TEXT + "oracle: {'value': '1', 'agrees': True}\n",
         MOVED_JSON % '"oracle":{"agrees":true,"value":"1"},'),
    ],
)
def test_norm_output_is_exact(runner, options, text, as_json):
    # an oracle past its cap is a note, not a verdict: the command exits 0
    argv = ["norm", WORKSPACE, '["p","q","r"]', *options]
    for flags, want in (([], text), (["--json"], as_json)):
        res = runner.invoke(main, argv + flags)
        assert (res.exit_code, res.stdout, res.stderr) == (0, want, "")


def _gen_workspace(tmp_path, monkeypatch):
    # the benchmark's generator: 24 points, six distinct distances, seed 5
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    gen = importlib.import_module("gen")
    f = tmp_path / "gen24.json"
    f.write_text(gen.workspace_json(gen.random_space(random.Random(5), 24, 6)))
    return str(f)


def _x(*indices):
    return [f"x{i}" for i in indices]


def _norm_out(word, value, witness, oracle_text, oracle_json, basepoint):
    text = (f"word: {word}\nnorm: {value}  (algorithm: fast)\nwitness pairing: {witness}\n"
            f"oracle: {oracle_text}\n")
    as_json = json.dumps({"algorithm": "fast", "basepoint": basepoint, "oracle": oracle_json,
                          "value": value, "witness": witness}, separators=(",", ":")) + "\n"
    return text, as_json


CAP_SKIPPED = "|supp(u)| = 14 exceeds enumeration cap 12"


@pytest.mark.parametrize(
    "workspace, word, options, want",
    [
        # 11 points and the zero: support 12, exactly the default cap
        ("gen", _x(*range(11)), [], _norm_out(
            _x(*range(11)), "4", [_x(0, 1), ["x10", "0"], _x(2, 3), _x(4, 5), _x(6, 7), _x(8, 9)],
            "{'value': '4', 'agrees': True}", {"agrees": True, "value": "4"}, "x0")),
        ("gen", _x(*range(13)), [], _norm_out(
            _x(*range(13)), "4",
            [_x(0, 1), _x(10, 11), ["x12", "0"], _x(2, 3), _x(4, 5), _x(6, 7), _x(8, 9)],
            f"{{'skipped': '{CAP_SKIPPED}'}}", {"skipped": CAP_SKIPPED}, "x0")),
        # support 2 under cap 2: the oracle runs
        ("bundled", ["p", "q"], ["--cap", "2"], _norm_out(
            ["p", "q"], "1/2", [["p", "q"]],
            "{'value': '1/2', 'agrees': True}", {"agrees": True, "value": "1/2"}, "p")),
    ],
)
def test_norm_check_at_the_cap_boundary(runner, tmp_path, monkeypatch, workspace, word, options, want):
    ws = _gen_workspace(tmp_path, monkeypatch) if workspace == "gen" else WORKSPACE
    argv = ["norm", ws, json.dumps(word), "--check", *options]
    for flags, out in (([], want[0]), (["--json"], want[1])):
        res = runner.invoke(main, argv + flags)
        assert (res.exit_code, res.stdout, res.stderr) == (0, out, "")


def test_norm_unknown_point(runner):
    res = runner.invoke(main, ["norm", WORKSPACE, '["nope"]'])
    assert res.exit_code == 2


def test_member_boolean(runner):
    # at the 1/2-threshold level p and q share a block
    res = runner.invoke(
        main, ["member", WORKSPACE, '["p","q"]', "-g", "B", "--level", "1", "--json"]
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["member"] is True


def test_member_abelian_negative(runner):
    res = runner.invoke(
        main, ["member", WORKSPACE, '{"p": 2, "r": -1}', "-g", "A", "--level", "1", "--json"]
    )
    assert res.exit_code == 1
    out = json.loads(res.output)
    assert out["member"] is False
    assert 2 in out["class_sums"] and -1 in out["class_sums"]


def test_member_free_conjugate(runner):
    res = runner.invoke(
        main, ["member", WORKSPACE, '["r","p","q\'","r\'"]', "-g", "F", "--level", "1", "--json"]
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["member"] is True and out["quotient_image_length"] == 0


def _member_words(rng, names):
    """Seeded B, A and F words over a few of the names, as JSON objects."""
    pts = rng.sample(names, min(len(names), 3))
    return [
        ("B", [rng.choice(pts) for _ in range(rng.randint(0, 4))]),
        ("A", {p: rng.randint(-2, 2) for p in pts}),
        ("F", [rng.choice(pts) + rng.choice(("", "'")) for _ in range(rng.randint(0, 5))]),
    ]


def test_member_verdict_equals_the_membership_functions(runner, tmp_path):
    """`member` reads its verdict off the evidence it prints; at every chain
    level that verdict is the one the membership functions decide."""
    paths = [WORKSPACE]
    for i, sp in enumerate(corpus(seed=808, count=6, max_size=6)):
        dist = [[format_rational(v) for v in row] for row in sp.dist]
        paths.append(write(tmp_path, {"space": {"points": list(sp.names), "dist": dist}}, f"c{i}.json"))
    decide = {
        "B": (parse_boolean_word, eps_subgroup_membership),
        "A": (parse_abelian_word, ab_eps_membership),
        "F": (parse_free_word, eps_tilde_membership),
    }
    rng = random.Random(8)
    verdicts = set()
    for path in paths:
        ws = load_workspace(path)
        for chain_name, chain in ws.chains.items():
            for level, (_, part) in enumerate(chain.levels):
                for _ in range(2):
                    for group, obj in _member_words(rng, list(ws.space.names)):
                        parse, member = decide[group]
                        want = member(parse(obj, ws.space), part)
                        argv = ["member", path, json.dumps(obj), "-g", group,
                                "--chain", chain_name, "--level", str(level), "--json"]
                        res = runner.invoke(main, argv)
                        assert res.exit_code == (0 if want else 1), res.output
                        assert json.loads(res.stdout)["member"] is want
                        verdicts.add((group, want))
    assert len(verdicts) == 6


def test_member_unknown_chain(runner):
    res = runner.invoke(main, ["member", WORKSPACE, "[]", "-g", "B", "--chain", "nope"])
    assert res.exit_code == 2


def test_report_passes(runner):
    res = runner.invoke(main, ["report", WORKSPACE])
    assert res.exit_code == 0
    assert "FAIL" not in res.output


# the pinned `report --json` bytes of the bundled workspace; the CI step
# "CLI as a process" compares its output with the same file
BUNDLED_REPORT = Path(__file__).resolve().parent / "data" / "bundled_report.json"


def test_the_bundled_report_prints_its_pinned_output(runner):
    as_json = runner.invoke(main, ["report", WORKSPACE, "--json"])
    text = runner.invoke(main, ["report", WORKSPACE])
    assert (as_json.exit_code, as_json.stdout_bytes) == (0, BUNDLED_REPORT.read_bytes())
    assert (text.exit_code, text.stdout.splitlines()) == (0, [
        "claim5   pass  16 words, all pairs",
        "claim6   pass  6 pairs and 4 singletons",
        "claim7   pass  15 nonzero words",
        "l_eps    pass  9603 word/partition checks at cap 4",
        "t_AE2    pass  2 thresholds x 16 words",
        "fbaire   pass  least length 4 in the coset > 3, so it misses B_3 (129 words)",
        "sbaire   pass  41 interior witnesses",
        "duality  pass  16 maps X -> Z2 extended and verified",
    ])


def test_the_full_report_passes_on_64_points(runner, tmp_path):
    sp = random_ultrametric(random.Random(64), 64)
    space = {"points": list(sp.names), "dist": [[format_rational(v) for v in row] for row in sp.dist]}
    res = runner.invoke(main, ["report", write(tmp_path, {"space": space}), "--json"])
    assert res.exit_code == 0
    rows = json.loads(res.stdout)
    assert sorted(rows) == sorted(CLAIMS) and all(row["passed"] for row in rows.values())


def test_report_only_single_row(runner):
    res = runner.invoke(main, ["report", WORKSPACE, "--only", "claim6"])
    assert res.exit_code == 0
    assert len(res.output.strip().splitlines()) == 1


def test_report_unknown_claim(runner):
    res = runner.invoke(main, ["report", WORKSPACE, "--only", "claim99"])
    assert res.exit_code == 2


def test_report_json_deterministic(runner):
    a = runner.invoke(main, ["report", WORKSPACE, "--json"])
    b = runner.invoke(main, ["report", WORKSPACE, "--json"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


# --- one input boundary: exit codes for malformed input and violations ----

with open(WORKSPACE) as fh:
    BUNDLED = json.load(fh)
COMMANDS = {
    "validate": ["validate", None],
    "norm": ["norm", None, '["p","q"]'],
    "member": ["member", None, '["p","q"]', "-g", "B"],
    "report": ["report", None, "--only", "claim6"],
}


def bundled_with(**changes):
    """The bundled workspace with top-level sections replaced."""
    obj = json.loads(json.dumps(BUNDLED))
    obj.update(changes)
    return obj


def space_with(**changes):
    space = dict(BUNDLED["space"], **changes)
    return bundled_with(space=space)


def argv_for(command, path):
    return [path if a is None else a for a in COMMANDS[command]]


def invoke(runner, argv):
    res = runner.invoke(main, argv)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert "Traceback" not in res.stdout and "Traceback" not in res.stderr
    return res


def assert_input_error(res):
    assert res.exit_code == 2
    assert res.stderr.startswith("input error:")


@pytest.mark.parametrize(
    "word",
    [
        '{"p": 1.5, "q": -1}',  # not read as coefficient 1
        '{"p": true, "q": -1}',  # not read as coefficient 1
        '{"p": "x"}',
    ],
)
def test_member_abelian_rejects_non_integer_coefficients(runner, word):
    assert_input_error(invoke(runner, ["member", WORKSPACE, word, "-g", "A", "--level", "0"]))


@pytest.mark.parametrize(
    "word, message",
    [
        ('{"p": 1.5}', "coefficient 1.5 is not an integer"),
        # every name is read before the word checks its coefficients
        ('{"zz": 1, "p": 1.5}', "unknown point name 'zz'"),
    ],
)
def test_member_abelian_reports_the_first_fault(runner, word, message):
    res = invoke(runner, ["member", WORKSPACE, word, "-g", "A"])
    assert_input_error(res)
    assert res.stderr == f"input error: {message}\n"


def test_norm_cap_default_is_the_enumeration_cap(runner):
    (cap,) = (p for p in main.commands["norm"].params if p.name == "cap")
    assert cap.default == DEFAULT_ENUM_CAP
    assert "[default: 12]" in invoke(runner, ["norm", "--help"]).stdout


def test_member_free_rejects_non_string_letters(runner):
    assert_input_error(invoke(runner, ["member", WORKSPACE, "[1,2]", "-g", "F"]))


MALFORMED = {
    "dist_row_not_a_list": space_with(dist=[["0", "1/2", "2", "2"], 5, 5, 5]),
    "levels_not_a_list": bundled_with(chains={"bad": {"levels": 5}}),
    "action_not_an_object": bundled_with(actions={"bad": 5}),
    "permutation_wrong_length": bundled_with(actions={"short": {"perms": [["q", "p", "r"]]}}),
    "reserved_point_name": space_with(points=["p", "q", "0", "s"]),
    "point_name_not_a_string": space_with(points=["p", "q", 7, "s"]),
}

VIOLATING = {
    "strong_triangle": space_with(
        dist=[["0", "1", "3", "3"], ["1", "0", "1", "3"], ["3", "1", "0", "3"], ["3", "3", "3", "0"]]
    ),
    "overlapping_chain_blocks": bundled_with(
        chains={"bad": {"levels": [{"threshold": 2, "blocks": [["p", "q", "r"], ["r", "s"]]}]}}
    ),
    "non_isometric_action": bundled_with(actions={"bad": {"perms": [["r", "q", "p", "s"]]}}),
    "empty_chain_block": bundled_with(
        chains={"bad": {"levels": [{"threshold": 2, "blocks": [["p", "q", "r", "s"], []]}]}}
    ),
    "asymmetric": space_with(
        dist=[["0", "1/2", "2", "2"], ["1/2", "0", "2", "2"], ["2", "2", "0", "1"], ["2", "2", "1/2", "0"]]
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_workspace_exits_2_under_every_command(runner, tmp_path, case):
    f = write(tmp_path, MALFORMED[case])
    for command in COMMANDS:
        assert_input_error(invoke(runner, argv_for(command, f)))


@pytest.mark.parametrize("case", sorted(VIOLATING))
def test_violation_exits_1_under_validate_and_2_elsewhere(runner, tmp_path, case):
    f = write(tmp_path, VIOLATING[case])
    res = invoke(runner, argv_for("validate", f))
    assert res.exit_code == 1
    assert res.stdout.startswith("violation: ")
    for command in ("norm", "member", "report"):
        assert_input_error(invoke(runner, argv_for(command, f)))


def _run_cli(*argv):
    """`python -m nafree.cli` in a fresh process, on the package under src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    cmd = [sys.executable, "-m", "nafree.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)


def test_the_cli_runs_as_a_process(tmp_path):
    ok = _run_cli("validate", WORKSPACE)
    bad = _run_cli("validate", write(tmp_path, VIOLATING["strong_triangle"]))
    unknown = _run_cli("norm", WORKSPACE, '["zz"]')
    assert (ok.returncode, ok.stderr) == (0, "") and ok.stdout.endswith("\nok\n")
    assert (bad.returncode, bad.stderr) == (1, "") and bad.stdout.startswith("violation: ")
    assert (unknown.returncode, unknown.stdout) == (2, "")
    assert unknown.stderr == "input error: unknown point name 'zz'\n"
    assert not any("Traceback" in r.stdout + r.stderr for r in (ok, bad, unknown))


def test_a_balls_chain_other_than_auto_is_an_input_error(runner, tmp_path):
    # `report` reads "balls" as the ball chain of the space; on this chain
    # its fbaire row used to fail for want of a separating level
    chain = {"levels": [{"threshold": "2", "blocks": [["p", "q", "r", "s"]]}]}
    f = write(tmp_path, bundled_with(chains={"balls": chain}))
    for argv in [argv_for(command, f) for command in COMMANDS] + [["report", f]]:
        res = invoke(runner, argv)
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == 'input error: chain \'balls\' must be "auto", the ball chain of the space\n'


def test_an_empty_space_is_named_before_its_basepoint(runner, tmp_path):
    f = write(tmp_path, {"space": {"points": [], "dist": []}})
    for command in COMMANDS:
        res = invoke(runner, argv_for(command, f))
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "input error: the space has no points\n"


def test_an_empty_point_list_does_not_name_the_matrix(runner, tmp_path):
    # before, the points were named x0, x1: validate passed and norm answered
    f = write(tmp_path, {"space": {"points": [], "dist": [["0", "1"], ["1", "0"]]}})
    for argv in [argv_for(command, f) for command in COMMANDS] + [["norm", f, '["x0","x1"]']]:
        res = invoke(runner, argv)
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "input error: name table does not match matrix size\n"


def test_validate_reports_one_violation_for_a_bad_chain(runner, tmp_path):
    f = write(tmp_path, VIOLATING["overlapping_chain_blocks"])
    res = invoke(runner, ["validate", f])
    violations = [line for line in res.stdout.splitlines() if line.startswith("violation:")]
    assert violations == ["violation: chain bad: point 2 occurs in two blocks"]


def test_strong_triangle_is_checked_once_per_load(runner, monkeypatch):
    calls = []
    original = nafree.spaces.validate_ultrametric

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(nafree.spaces, "validate_ultrametric", counted)
    load_workspace(WORKSPACE)
    assert calls == [4]
    assert load_workspace(WORKSPACE, "r").space.basepoint == 2
    assert calls == [4, 4]
    assert invoke(runner, ["validate", WORKSPACE]).exit_code == 0
    assert calls == [4, 4, 4]


def test_one_prim_walk_per_load(runner, tmp_path, monkeypatch):
    # the walk that checks the strong triangle leaves the spanning tree every
    # ball partition of the load is read from
    calls = []
    original = nafree.spaces._spanning_tree

    def counted(m):
        calls.append(len(m))
        return original(m)

    monkeypatch.setattr(nafree.spaces, "_spanning_tree", counted)
    sp = random_ultrametric(random.Random(19), 24)
    chain = {"levels": [{"threshold": "4", "blocks": [list(sp.names)]}]}
    space = {"points": list(sp.names), "dist": [[str(v) for v in row] for row in sp.dist]}
    f = write(tmp_path, {"space": space, "chains": {"balls": "auto", "top": chain},
                         "actions": {"id": {"perms": [list(sp.names)]}}})
    for path in (WORKSPACE, f):
        calls.clear()
        ws = load_workspace(path)
        assert calls == [ws.space.size]
        assert ws.chains["balls"].levels[0][0] == ws.space.scale[-1]
    calls.clear()
    assert invoke(runner, ["report", WORKSPACE, "--only", "claim6"]).exit_code == 0
    assert calls == [4]


def test_in_process_requests_free_their_streams(runner):
    # click's default stream lookup caches each stream with a strong
    # reference to itself; a request that writes through it stays alive
    requests = [
        (["validate", WORKSPACE], 0),
        (["member", "-g", "B", WORKSPACE, '["p"]'], 1),
        (["norm", WORKSPACE, '["nope"]'], 2),
    ]

    def run(count):
        for i in range(count):
            argv, code = requests[i % len(requests)]
            assert invoke(runner, argv).exit_code == code

    run(60)  # warm-up: imports, parse caches, interned strings
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        run(200)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / 200 < 300, retained


# --- repeated Boolean names, nesting depth and group size ------------------


def test_repeated_boolean_names_add_mod_2(runner):
    res = invoke(runner, ["norm", WORKSPACE, '["p","p"]', "--json"])
    assert res.exit_code == 0 and json.loads(res.stdout)["value"] == "0"
    res = invoke(runner, ["member", WORKSPACE, '["p","p"]', "-g", "B", "--level", "0", "--json"])
    assert res.exit_code == 0 and json.loads(res.stdout)["member"] is True
    for argv in (["norm", WORKSPACE], ["member", WORKSPACE, "-g", "B", "--level", "1"]):
        twice = invoke(runner, argv[:2] + ['["p","q","p"]'] + argv[2:] + ["--json"])
        once = invoke(runner, argv[:2] + ['["q"]'] + argv[2:] + ["--json"])
        assert (twice.exit_code, twice.stdout) == (once.exit_code, once.stdout)


def test_deeply_nested_json_is_an_input_error(runner, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    for command in COMMANDS:
        assert_input_error(invoke(runner, argv_for(command, str(p))))
    deep = "[" * 5000 + "]" * 5000
    assert_input_error(invoke(runner, ["norm", WORKSPACE, deep]))
    for group in "BAF":
        assert_input_error(invoke(runner, ["member", WORKSPACE, deep, "-g", group]))


def test_oversized_action_group_is_an_input_error(runner, tmp_path):
    # a transposition and a 10-cycle generate all 10! permutations
    names = [f"x{i}" for i in range(10)]
    dist = [[int(i != j) for j in range(10)] for i in range(10)]
    perms = [names[1::-1] + names[2:], names[1:] + names[:1]]
    f = write(tmp_path, {"space": {"points": names, "dist": dist},
                         "actions": {"big": {"perms": perms}}})
    for command in COMMANDS:
        res = invoke(runner, argv_for(command, f))
        assert_input_error(res)
        assert res.stderr.startswith("input error: action big: ")


DEEP = "[" * 900 + "]" * 900  # parses: well under the JSON nesting limit


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", WORKSPACE, DEEP],
        ["member", WORKSPACE, DEEP, "-g", "F"],
        ["member", WORKSPACE, '{"p": %s}' % DEEP, "-g", "A"],
        ["norm", WORKSPACE, '["p"]', "--basepoint", "x" * 2000],
        ["member", WORKSPACE, '["p"]', "-g", "B", "--chain", "c" * 2000],
    ],
)
def test_echoed_input_is_bounded(runner, argv):
    res = invoke(runner, argv)
    assert_input_error(res)
    assert len(res.stderr) < 200


def _long_values(kind):
    if kind == "chain name":  # a violation in a chain with a long name
        blocks = [["p", "q"], ["q", "r", "s"]]
        return bundled_with(chains={"c" * 2000: {"levels": [{"threshold": "1", "blocks": blocks}]}})
    dist = json.loads(json.dumps(BUNDLED["space"]["dist"]))
    dist[0][1] = dist[1][0] = json.loads(DEEP) if kind == "deep rational" else "1/" + "x" * 2000
    return space_with(dist=dist)


@pytest.mark.parametrize("kind", ["deep rational", "long rational", "chain name"])
@pytest.mark.parametrize("command", ["validate", "norm"])
def test_echoed_workspace_value_is_bounded(runner, tmp_path, kind, command):
    res = invoke(runner, argv_for(command, write(tmp_path, _long_values(kind))))
    assert res.exit_code in (1, 2)
    assert 0 < len(res.stdout + res.stderr) < 200


def test_short_echoed_input_is_shown_whole(runner):
    res = invoke(runner, ["norm", WORKSPACE, '[["x", 1, {"k": null}]]'])
    assert res.stderr == "input error: unknown point name ['x', 1, {'k': None}]\n"


# --- one parse per spelling, no coercion -----------------------------------

ONES = {"space": {"points": ["p", "q", "r"], "dist": [[0, 1, "1"], [1, 0, "2/2"], ["1", "2/2", 0]]}}


@pytest.mark.parametrize("bad, shown_as", [(True, "True"), (1.0, "1.0")])
def test_equal_spellings_are_one_value_but_true_and_floats_are_not(runner, tmp_path, bad, shown_as):
    # 1, "1" and "2/2" are one distance; true and 1.0 are refused even after
    # the spelling 1 has been parsed, where a lookup by value would hit it
    f = write(tmp_path, ONES)
    res = invoke(runner, ["validate", f])
    assert res.stdout == "space: 3 points, ok\nchain balls: 2 levels, ok\nok\n"
    obj = json.loads(json.dumps(ONES))
    obj["space"]["dist"][1][0] = bad
    f = write(tmp_path, obj)
    for command in COMMANDS:
        res = invoke(runner, argv_for(command, f))
        assert_input_error(res)
        assert res.stderr == f"input error: not a rational: {shown_as}\n"


def test_each_spelling_is_read_once(monkeypatch):
    calls = []
    original = nafree.spaces.rational

    def counted(v):
        calls.append(v)
        return original(v)

    rng = random.Random(24)
    sp = random_ultrametric(rng, 24)
    spellings = {v: [str(v), f"{2 * v.numerator}/{2 * v.denominator}"] for row in sp.dist for v in row}
    for v in spellings:
        if v.denominator == 1:
            spellings[v].append(v.numerator)
    dist = [[rng.choice(spellings[v]) for v in row] for row in sp.dist]
    monkeypatch.setattr(nafree.spaces, "rational", counted)
    space = parse_space({"points": list(sp.names), "dist": dist})
    distinct = {(type(v), v) for row in dist for v in row}
    assert len(calls) == len(distinct) < 24 * 24 // 10
    assert sorted(calls, key=repr) == sorted((v for _, v in distinct), key=repr)
    assert space.dist == sp.dist and space.rank == sp.rank and space.scale == sp.scale


GOOD = BUNDLED["space"]["dist"]


def dist_with(*cells, rows=GOOD):
    """The bundled matrix with (row, column, entry) cells replaced."""
    dist = json.loads(json.dumps(rows))
    for i, j, v in cells:
        dist[i][j] = v
    return dist


ONE_SPELLED = [[0, 1, "2", "2"], [1, 0, "2", "2"], ["2", "2", 0, 1], ["2", "2", 1, 0]]


@pytest.mark.parametrize("dist, message", [
    (dist_with((1, 2, 1), (1, 3, 1.0), rows=ONE_SPELLED), "not a rational: 1.0"),
    (dist_with((1, 2, 1), (1, 3, True), rows=ONE_SPELLED), "not a rational: True"),
    (dist_with((0, 2, True), (1, 2, 1), rows=ONE_SPELLED), "not a rational: True"),
    (dist_with((1, 2, "1e3"), (1, 3, "1/0")), "malformed rational '1e3': exponents are not read"),
    (dist_with((1, 3, "1e3"), (1, 2, "1/0")), "malformed rational '1/0': Fraction(1, 0)"),
    (dist_with((0, 3, "1/0"), (1, 0, "1e3")), "malformed rational '1/0': Fraction(1, 0)"),
    (dist_with((1, 1, "1e3"), (1, 2, None), (1, 3, "1e3")),
     "malformed rational '1e3': exponents are not read"),
    (dist_with((2, 1, None)), "not a rational: None"),
    (dist_with((3, 0, [1]), (3, 1, "x")), "not a rational: [1]"),
    (dist_with((2, 3, "x"))[:3] + [5], "malformed rational 'x': Invalid literal for Fraction: 'x'"),
    (dist_with((2, 3, "x"))[:2] + [5], "a dist row must be an array, got int"),
    (GOOD[:2] + [GOOD[2] + ["2"], GOOD[3]], "matrix is not square"),
    (dist_with((0, 1, "-1/2"), (1, 0, "-1/2")), "negative entry at (0,1)"),
])
def test_a_malformed_matrix_names_its_first_bad_entry(runner, tmp_path, dist, message):
    f = write(tmp_path, space_with(dist=dist))
    for command in COMMANDS:
        res = invoke(runner, argv_for(command, f))
        assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("changes, message", [
    ({"points": ["p", "p", "r", "s"], "dist": dist_with((1, 3, "x"), (3, 1, "x"))},
     "malformed rational 'x': Invalid literal for Fraction: 'x'"),
    ({"points": ["p", "0", "r", "s"], "dist": dist_with((1, 3, "x"), (3, 1, "x"))},
     "malformed rational 'x': Invalid literal for Fraction: 'x'"),
    ({"points": ["p", "p", "r", "s"], "basepoint": "zz"}, "basepoint 'zz' is not a point"),
])
def test_a_bad_entry_or_basepoint_is_named_before_a_bad_name(runner, tmp_path, changes, message):
    # the loader reads the entries and the basepoint, then the space checks its names
    f = write(tmp_path, space_with(**changes))
    for command in COMMANDS:
        res = invoke(runner, argv_for(command, f))
        assert (res.exit_code, res.stdout, res.stderr) == (2, "", f"input error: {message}\n")


# a zero at (0,1) beside each other fault: positivity is checked last
ZERO_AND = {
    "strong_triangle": ([[0, 0, 1], [0, 0, 2], [1, 2, 0]],
                        "strong_triangle at (1, 0, 2): d(1,2) = 2 > max(d(1,0), d(0,2)) = 1"),
    "symmetry": ([[0, 0, 1], [0, 0, 1], [2, 1, 0]], "symmetry at (0, 2): d(0,2) = 1 != 2 = d(2,0)"),
    "positivity": ([[0, 0, 1], [0, 0, 1], [1, 1, 0]], "positivity at (0, 1): d(0,1) = 0 for 0 != 1"),
}


@pytest.mark.parametrize("kind", sorted(ZERO_AND))
def test_positivity_is_checked_last(runner, tmp_path, kind):
    rows, text = ZERO_AND[kind]
    bad = validate_ultrametric(rows)
    assert (bad.kind, str(bad)) == (kind, text)
    f = write(tmp_path, {"space": {"points": ["a", "b", "c"], "dist": rows}})
    res = invoke(runner, ["validate", f])
    assert (res.exit_code, res.stderr) == (1, "")
    assert res.stdout == f"violation: space: not an ultra-metric: {text}\n"


def test_a_name_listed_twice_in_a_block_is_an_input_error(runner, tmp_path):
    # a set of point names would read the block as {p, q}
    chain = {"levels": [{"threshold": "1/2", "blocks": [["p", "p", "q"], ["r", "s"]]}]}
    f = write(tmp_path, bundled_with(chains={"balls": "auto", "twice": chain}))
    for command in COMMANDS:
        res = invoke(runner, argv_for(command, f))
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "input error: duplicate point name 'p' in a block\n"


@pytest.mark.parametrize("change", [
    {"actions": {"bad": {"perms": [[["q"], "p", "s", "r"]]}}},
    {"chains": {"bad": {"levels": [{"threshold": "2", "blocks": [[["q"], "p", "r", "s"]]}]}}},
])
def test_an_unhashable_name_in_a_workspace_is_an_unknown_name(runner, tmp_path, change):
    f = write(tmp_path, bundled_with(**change))
    for command in COMMANDS:
        res = invoke(runner, argv_for(command, f))
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "input error: unknown point name ['q']\n"


@pytest.mark.parametrize("argv", [
    ["norm", WORKSPACE, '[["p"]]'],
    ["member", WORKSPACE, '["q", ["p"]]', "-g", "B"],
])
def test_an_unhashable_word_name_is_an_unknown_name(runner, argv):
    res = invoke(runner, argv)
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", "input error: unknown point name ['p']\n")


def test_symmetric_group_workspace_loads_quickly(runner, tmp_path):
    # a transposition and a 6-cycle generate S_6; the action is checked on
    # the two generators, not on 720^2 pairs of elements
    names = [f"x{i}" for i in range(6)]
    dist = [[int(i != j) for j in range(6)] for i in range(6)]
    perms = [names[1::-1] + names[2:], names[1:] + names[:1]]
    f = write(tmp_path, {"space": {"points": names, "dist": dist},
                         "actions": {"s6": {"perms": perms}}})
    start = time.perf_counter()
    ws = load_workspace(f)
    assert time.perf_counter() - start < 2
    act = ws.actions["s6"]
    start = time.perf_counter()
    IsometricAction(act.group, act.space, act.table)
    assert time.perf_counter() - start < 0.1
    res = invoke(runner, ["validate", f])
    assert res.exit_code == 0 and "action s6: group of order 720, isometric, ok" in res.stdout
