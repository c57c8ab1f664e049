"""Command-line front end.

Exit codes: 0 on success, 1 on mathematical failure (a negative verdict, or
the axiom violation `validate` reports), 2 on input errors.  Under every
other command a workspace that breaks an axiom is an input error.
"""
from __future__ import annotations

import json
import sys
from typing import NoReturn

import click

from .abelian import ab_eps_membership, class_sums
from .boolean import eps_subgroup_membership, graev_norm_bruteforce, graev_norm_fast
from .errors import CapExceeded, InputError, NafreeError, Violation, shown
from .freegroup import eps_tilde_membership, quotient_hom
from .report import CLAIMS, run_report
from .serialize import (
    dump_json,
    encode_certificate,
    format_rational,
    load_workspace,
    parse_abelian_word,
    parse_boolean_word,
    parse_free_word,
)

EXIT_MATH_FAIL = 1
EXIT_INPUT = 2


def _echo(message: str, nl: bool = True, err: bool = False) -> None:
    """`click.echo` to the current stdout or stderr, looked up on each call.
    click's own lookup caches each stream in a weak-keyed dict whose value
    holds the key, so every in-process invocation would leave its streams
    alive."""
    click.echo(message, file=click.get_text_stream("stderr" if err else "stdout"), nl=nl)


def _input_error(message: str) -> NoReturn:
    _echo(f"input error: {message}", err=True)
    sys.exit(EXIT_INPUT)


def _load(file, basepoint):
    try:
        return load_workspace(file, basepoint)
    except InputError as exc:
        _input_error(str(exc))


@click.group()
def main():
    """Exact computations with free non-archimedean groups at desk scale."""


@main.command()
@click.argument("file", type=click.Path())
def validate(file):
    """Validate the space, chains and actions in a workspace file.

    Stops at the first violation (broken strong triangle, overlapping blocks,
    non-isometric action) and exits 1; malformed input exits 2.
    """
    try:
        ws = load_workspace(file)
    except Violation as exc:
        _echo(f"violation: {exc}")
        sys.exit(EXIT_MATH_FAIL)
    except InputError as exc:
        _input_error(str(exc))
    _echo(f"space: {ws.space.size} points, ok")
    for name, chain in ws.chains.items():
        _echo(f"chain {name}: {len(chain)} levels, ok")
    for name, act in ws.actions.items():
        _echo(f"action {name}: group of order {act.group.order}, isometric, ok")
    _echo("ok")


@main.command()
@click.argument("file", type=click.Path())
@click.argument("word")
@click.option("--check", is_flag=True, help="also run the brute-force oracle")
@click.option("--cap", type=int, default=12, show_default=True, help="enumeration cap")
@click.option("--basepoint", default=None, help="override the zero-extension basepoint")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def norm(file, word, check, cap, basepoint, as_json):
    """Graev ultra-norm of a Boolean WORD (JSON array of point names)."""
    ws = _load(file, basepoint)
    try:
        u = parse_boolean_word(json.loads(word), ws.space)
    except (json.JSONDecodeError, RecursionError, InputError) as exc:
        _input_error(str(exc))
    cert = graev_norm_fast(u, ws.aug)
    payload = encode_certificate(cert, ws.aug)
    if check:
        try:
            brute = graev_norm_bruteforce(u, ws.aug, cap)
            agree = brute.value == cert.value
            payload["oracle"] = {"value": format_rational(brute.value), "agrees": agree}
        except CapExceeded as exc:
            payload["oracle"] = {"skipped": str(exc)}
            agree = True
    else:
        agree = True
    if as_json:
        _echo(dump_json(payload), nl=False)
    else:
        _echo(f"word: {json.loads(word)}")
        _echo(f"norm: {payload['value']}  (algorithm: {payload['algorithm']})")
        _echo(f"witness pairing: {payload['witness']}")
        if check:
            _echo(f"oracle: {payload['oracle']}")
    if not agree:
        sys.exit(EXIT_MATH_FAIL)


@main.command()
@click.argument("file", type=click.Path())
@click.argument("word")
@click.option("--group", "-g", type=click.Choice(["B", "A", "F"]), required=True)
@click.option("--chain", default="balls", show_default=True)
@click.option("--level", type=int, default=-1, help="chain level index (default finest)")
@click.option("--json", "as_json", is_flag=True)
def member(file, word, group, chain, level, as_json):
    """Membership of WORD in the epsilon-subgroup at a chain level.

    WORD is JSON: B = array of names, A = {name: coeff}, F = letter array
    with trailing apostrophe for inverses.
    """
    ws = _load(file, None)
    if chain not in ws.chains:
        _input_error(f"unknown chain {shown(chain)}")
    levels = ws.chains[chain].levels
    if not -len(levels) <= level < len(levels):
        _input_error(f"level {level} out of range")
    part = levels[level][1]
    try:
        obj = json.loads(word)
        if group == "B":
            u = parse_boolean_word(obj, ws.space)
            verdict = eps_subgroup_membership(u, part)
            evidence = {
                "parity": [
                    len(b & u.points) % 2 == 0 for b in part.blocks
                ]
            }
        elif group == "A":
            w = parse_abelian_word(obj, ws.space)
            verdict = ab_eps_membership(w, part)
            evidence = {"class_sums": list(class_sums(w, part))}
        else:
            w = parse_free_word(obj, ws.space)
            verdict = eps_tilde_membership(w, part)
            img = quotient_hom(w, part)
            evidence = {"quotient_image_length": len(img)}
    except (json.JSONDecodeError, RecursionError, InputError) as exc:
        _input_error(str(exc))
    blocks = [sorted(ws.space.names[p] for p in b) for b in part.blocks]
    payload = {"member": verdict, "blocks": blocks, **evidence}
    if as_json:
        _echo(dump_json(payload), nl=False)
    else:
        _echo(f"blocks: {blocks}")
        _echo(f"evidence: {evidence}")
        _echo("member" if verdict else "not a member")
    if not verdict:
        sys.exit(EXIT_MATH_FAIL)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--only", default=None, help=f"run one claim: {', '.join(CLAIMS)}")
@click.option("--json", "as_json", is_flag=True)
def report(file, only, as_json):
    """Run the claim-by-claim property suite on the workspace."""
    ws = _load(file, None)
    try:
        rows = run_report(ws, only)
    except NafreeError as exc:
        _input_error(str(exc))
    if as_json:
        _echo(dump_json(rows), nl=False)
    else:
        width = max(len(c) for c in rows)
        for claim, row in rows.items():
            status = "pass" if row["passed"] else "FAIL"
            _echo(f"{claim:<{width}}  {status}  {row['detail']}")
    if not all(row["passed"] for row in rows.values()):
        sys.exit(EXIT_MATH_FAIL)


if __name__ == "__main__":
    main()
