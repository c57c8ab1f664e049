"""Command-line interface: exit codes, evidence output and determinism."""
import gc
import json
import time
import tracemalloc
from importlib import resources

import pytest
from click.testing import CliRunner

import nafree.spaces
from nafree.cli import main
from nafree.finite_groups import IsometricAction
from nafree.serialize import load_workspace

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


def test_member_unknown_chain(runner):
    res = runner.invoke(main, ["member", WORKSPACE, "[]", "-g", "B", "--chain", "nope"])
    assert res.exit_code == 2


def test_report_passes(runner):
    res = runner.invoke(main, ["report", WORKSPACE])
    assert res.exit_code == 0
    assert "FAIL" not in res.output


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


def test_member_free_rejects_non_string_letters(runner):
    assert_input_error(invoke(runner, ["member", WORKSPACE, "[1,2]", "-g", "F"]))


MALFORMED = {
    "dist_row_not_a_list": space_with(dist=[["0", "1/2", "2", "2"], 5, 5, 5]),
    "levels_not_a_list": bundled_with(chains={"bad": {"levels": 5}}),
    "action_not_an_object": bundled_with(actions={"bad": 5}),
    "permutation_wrong_length": bundled_with(actions={"short": {"perms": [["q", "p", "r"]]}}),
}

VIOLATING = {
    "strong_triangle": space_with(
        dist=[["0", "1", "3", "3"], ["1", "0", "1", "3"], ["3", "1", "0", "3"], ["3", "3", "3", "0"]]
    ),
    "overlapping_chain_blocks": bundled_with(
        chains={"bad": {"levels": [{"threshold": 2, "blocks": [["p", "q", "r"], ["r", "s"]]}]}}
    ),
    "non_isometric_action": bundled_with(actions={"bad": {"perms": [["r", "q", "p", "s"]]}}),
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
