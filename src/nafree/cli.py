"""Command-line front end.

Exit codes: 0 on success, 1 on mathematical failure (a negative verdict, or
the axiom violation `validate` reports), 2 on input errors.  Under every
other command a workspace that breaks an axiom is an input error.  Commands
return their verdict; `main` alone turns verdicts and errors into exit codes.
"""
from __future__ import annotations

import json
import sys
from itertools import repeat

import click

from .abelian import class_sums
from .boolean import DEFAULT_ENUM_CAP, graev_norm_bruteforce, graev_norm_fast
from .errors import CapExceeded, InputError, NafreeError, Violation, shown
from .freegroup import quotient_hom
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


def _echo(message: str, nl: bool = True, err: bool = False) -> None:
    """`click.echo` to the current stdout or stderr, looked up on each call.
    click's own lookup caches each stream in a weak-keyed dict whose value
    holds the key, so every in-process invocation would leave its streams
    alive."""
    click.echo(message, file=click.get_text_stream("stderr" if err else "stdout"), nl=nl)


def _emit(as_json: bool, payload, lines: list[str]) -> None:
    """Print `payload` as deterministic JSON, or else `lines` as text."""
    if as_json:
        _echo(dump_json(payload), nl=False)
    else:
        _echo("\n".join(lines))


def _json(word: str):
    """The JSON value of a WORD argument; unreadable JSON is an InputError."""
    try:
        return json.loads(word)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(str(exc)) from exc


class _Boundary(click.Group):
    """The one owner of the exit codes: a library error exits 2 after one
    `input error:` line on stderr, a false verdict 1, a true one 0."""

    def invoke(self, ctx):
        try:
            verdict = super().invoke(ctx)
        except NafreeError as exc:
            _echo(f"input error: {exc}", err=True)
            sys.exit(2)
        if not verdict:
            sys.exit(1)
        return verdict


@click.group(cls=_Boundary)
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
        return False
    _echo("\n".join([
        f"space: {ws.space.size} points, ok",
        *(f"chain {name}: {len(chain)} levels, ok" for name, chain in ws.chains.items()),
        *(f"action {name}: group of order {act.group.order}, isometric, ok"
          for name, act in ws.actions.items()),
        "ok",
    ]))
    return True


@main.command()
@click.argument("file", type=click.Path())
@click.argument("word")
@click.option("--check", is_flag=True, help="also run the brute-force oracle")
@click.option("--cap", type=int, default=DEFAULT_ENUM_CAP, show_default=True, help="enumeration cap")
@click.option("--basepoint", default=None, help="override the zero-extension basepoint")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def norm(file, word, check, cap, basepoint, as_json):
    """Graev ultra-norm of a Boolean WORD (JSON array of point names)."""
    ws = load_workspace(file, basepoint)
    obj = _json(word)
    u = parse_boolean_word(obj, ws.space)
    cert = graev_norm_fast(u, ws.aug)
    payload = encode_certificate(cert, ws.aug)
    lines = [
        f"word: {obj}",
        f"norm: {payload['value']}  (algorithm: {payload['algorithm']})",
        f"witness pairing: {payload['witness']}",
    ]
    agree = True
    if check:
        try:
            brute = graev_norm_bruteforce(u, ws.aug, cap)
            agree = brute.value == cert.value
            payload["oracle"] = {"value": format_rational(brute.value), "agrees": agree}
        except CapExceeded as exc:
            payload["oracle"] = {"skipped": str(exc)}
        lines.append(f"oracle: {payload['oracle']}")
    _emit(as_json, payload, lines)
    return agree


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
    ws = load_workspace(file)
    if chain not in ws.chains:
        raise InputError(f"unknown chain {shown(chain)}")
    levels = ws.chains[chain].levels
    if not -len(levels) <= level < len(levels):
        raise InputError(f"level {level} out of range")
    part = levels[level][1]
    obj = _json(word)
    if group == "B":
        u = parse_boolean_word(obj, ws.space)
        parity = [c % 2 == 0 for c in part.block_sums(zip(u.points, repeat(1)))]
        verdict, evidence = all(parity), {"parity": parity}
    elif group == "A":
        sums = list(class_sums(parse_abelian_word(obj, ws.space), part))
        verdict, evidence = not any(sums), {"class_sums": sums}
    else:
        img = quotient_hom(parse_free_word(obj, ws.space), part)
        verdict, evidence = img.is_identity(), {"quotient_image_length": len(img)}
    blocks = [sorted(ws.space.names[p] for p in b) for b in part.blocks]
    _emit(as_json, {"member": verdict, "blocks": blocks, **evidence}, [
        f"blocks: {blocks}",
        f"evidence: {evidence}",
        "member" if verdict else "not a member",
    ])
    return verdict


@main.command()
@click.argument("file", type=click.Path())
@click.option("--only", default=None, help=f"run one claim: {', '.join(CLAIMS)}")
@click.option("--json", "as_json", is_flag=True)
def report(file, only, as_json):
    """Run the claim-by-claim property suite on the workspace."""
    rows = run_report(load_workspace(file), only)
    width = max(len(c) for c in rows)
    _emit(as_json, rows, [
        f"{claim:<{width}}  {'pass' if row['passed'] else 'FAIL'}  {row['detail']}"
        for claim, row in rows.items()
    ])
    return all(row["passed"] for row in rows.values())


if __name__ == "__main__":
    main()
