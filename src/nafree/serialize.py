"""JSON input/output for spaces, partitions, words and workspaces.

Rationals travel as strings "p/q" or plain integers; Boolean words as sorted
point-name arrays; abelian words as {"name": coeff}; free words as letter
arrays with a trailing apostrophe for inverses.  The name "0" is reserved
for the adjoined zero element and rejected in user inputs.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .abelian import AbelianWord
from .boolean import BooleanWord, NormCertificate
from .errors import CapExceeded, InputError, Violation, clip, shown
from .finite_groups import FiniteGroupTable, IsometricAction
from .freegroup import FreeWord
from .spaces import (
    AugmentedSpace,
    Partition,
    PartitionChain,
    UltraMetricSpace,
    ball_chain,
    extend_with_zero,
    rank_matrix,
    rational,
)


def format_rational(v: Fraction) -> str:
    v = rational(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _array(v, what: str) -> list:
    if not isinstance(v, list):
        raise InputError(f"{what} must be an array, got {type(v).__name__}")
    return v


def parse_space(obj: dict, basepoint: Optional[str] = None) -> UltraMetricSpace:
    """The space object; `basepoint`, if given, overrides its "basepoint"."""
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise InputError("space object needs 'points' and 'dist'")
    names = tuple(_array(obj["points"], "points"))
    rows = _array(obj["dist"], "dist")
    dist = rank_matrix(_array(row, "a dist row") for row in rows)
    if basepoint is None:
        basepoint = obj.get("basepoint")
    index = 0
    if basepoint is not None:
        if basepoint not in names:
            raise InputError(f"basepoint {shown(basepoint)} is not a point")
        index = names.index(basepoint)
    return UltraMetricSpace(dist=dist, names=names, basepoint=index)


def parse_partition(obj: dict, space: UltraMetricSpace) -> Partition:
    try:
        blocks = obj["blocks"]
    except (KeyError, TypeError) as exc:
        raise InputError("partition object needs 'blocks'") from exc
    parsed = []
    for b in _array(blocks, "blocks"):
        points = [space.index(name) for name in _array(b, "a block")]
        parsed.append(frozenset(points))
        if len(parsed[-1]) < len(points):
            twice = next(name for i, name in enumerate(b) if points[i] in points[:i])
            raise InputError(f"duplicate point name {shown(twice)} in a block")
    return Partition(tuple(parsed), space.size)


def parse_chain(obj, space: UltraMetricSpace) -> PartitionChain:
    if obj == "auto":
        return ball_chain(space)
    if not isinstance(obj, dict) or "levels" not in obj:
        raise InputError('chain must be "auto" or an object with "levels"')
    parsed = []
    for lvl in _array(obj["levels"], "levels"):
        if not isinstance(lvl, dict) or "threshold" not in lvl:
            raise InputError("a chain level needs 'threshold' and 'blocks'")
        parsed.append((rational(lvl["threshold"]), parse_partition(lvl, space)))
    return PartitionChain(tuple(parsed))


def parse_boolean_word(obj, space: UltraMetricSpace) -> BooleanWord:
    """Names add mod 2 (x + x = 0 in B(X)): a name listed twice cancels."""
    if not isinstance(obj, list):
        raise InputError("Boolean word must be an array of point names")
    points: set[int] = set()
    for name in obj:
        points ^= {space.index(name)}
    return BooleanWord(frozenset(points), space.size)


def parse_abelian_word(obj, space: UltraMetricSpace) -> AbelianWord:
    if not isinstance(obj, dict):
        raise InputError("abelian word must be an object name -> coefficient")
    return AbelianWord(tuple((space.index(n), c) for n, c in obj.items()), space.size)


def parse_free_word(obj, space: UltraMetricSpace) -> FreeWord:
    if not isinstance(obj, list):
        raise InputError("free word must be an array of letters")
    letters = []
    for tok in obj:
        if not isinstance(tok, str):
            raise InputError(f"letter {shown(tok)} is not a string")
        if tok.endswith("'"):
            letters.append((space.index(tok[:-1]), -1))
        else:
            letters.append((space.index(tok), 1))
    return FreeWord(tuple(letters), space.size)


def encode_certificate(cert: NormCertificate, aug: AugmentedSpace) -> dict:
    names = aug.names
    return {
        "value": format_rational(cert.value),
        "witness": sorted([names[a], names[b]] for a, b in cert.witness.pairs),
        "algorithm": cert.algorithm,
        "basepoint": aug.base.names[aug.base.basepoint],
    }


@dataclass
class Workspace:
    """A validated bundle of one space plus named chains and actions."""

    space: UltraMetricSpace
    aug: AugmentedSpace
    chains: dict[str, PartitionChain]
    actions: dict[str, IsometricAction]


@contextmanager
def _section(name: str):
    """Prefix a Violation with the workspace section it came from."""
    try:
        yield
    except Violation as exc:
        raise Violation(f"{name}: {exc}") from exc


def load_workspace(path: str, basepoint: Optional[str] = None) -> Workspace:
    """Read and check a workspace file, the one way from a file to objects:
    InputError for malformed input, Violation for a broken axiom.  A chain
    "balls" must be "auto"; the "options" key is accepted and ignored."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: line {exc.lineno} col {exc.colno}") from exc
    except RecursionError as exc:
        raise InputError(f"invalid JSON in {path}: nested too deeply") from exc
    if not isinstance(raw, dict) or "space" not in raw:
        raise InputError("workspace needs a 'space' object")
    chain_objs, action_objs = raw.get("chains", {}), raw.get("actions", {})
    if not isinstance(chain_objs, dict) or not isinstance(action_objs, dict):
        raise InputError("'chains' and 'actions' must be objects")
    if chain_objs.get("balls", "auto") != "auto":
        raise InputError('chain \'balls\' must be "auto", the ball chain of the space')
    with _section("space"):
        space = parse_space(raw["space"], basepoint)
    aug = extend_with_zero(space)
    chains = {}
    for name, obj in chain_objs.items():
        with _section(f"chain {clip(name)}"):
            chains[name] = parse_chain(obj, space)
    if "balls" not in chains:
        chains["balls"] = ball_chain(space)
    actions = {}
    for name, obj in action_objs.items():
        if not isinstance(obj, dict):
            raise InputError(f"action {shown(name)} must be an object")
        perms = [
            [space.index(n) for n in _array(perm, "a permutation")]
            for perm in _array(obj.get("perms", []), "perms")
        ]
        if not perms:
            raise InputError(f"action {shown(name)} has no permutations")
        try:
            group, elems = FiniteGroupTable.from_permutations(perms)
        except CapExceeded as exc:
            raise InputError(f"action {clip(name)}: {exc}") from exc
        with _section(f"action {clip(name)}"):
            actions[name] = IsometricAction(group=group, space=space, table=elems)
    return Workspace(space=space, aug=aug, chains=chains, actions=actions)


def dump_json(obj) -> str:
    """Deterministic JSON: sorted keys, no float drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
