"""The workloads and the closed loop that times them.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A workload builds a fixed, seeded list
of operations; the loop runs the whole list again and again until the run
time is spent.  Each operation's answer is checked against a reference
computed before timing starts; the check, and an operation's `reset`, are
not timed.
"""
from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from click.testing import CliRunner

import gen
import reference
from nafree import abelian, boolean, cli, freegroup, oracles, report, serialize
from nafree.abelian import AbelianWord
from nafree.boolean import BooleanWord
from nafree.freegroup import FreeWord, SymmetrizedSpace
from nafree.spaces import Partition
from tracing import Tracer

SUBPROCESS_TIMEOUT_S = 120


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    reset: Optional[Callable[[], None]] = None  # runs, untimed, before `run`


@dataclass
class Loop:
    """What one closed loop over the operation list measured."""

    latencies_ms: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    answers: list = field(default_factory=list)  # outputs of the first pass
    probe_ms: list[float] = field(default_factory=list)  # timings of `probe`, in order


PROBES = 16


def run_loop(ops: list[Op], seconds: float, tracer: Optional[Tracer] = None,
             min_passes: int = 1, between: Optional[Callable[[], None]] = None,
             probe: Optional[Callable[[], Any]] = None) -> Loop:
    """Run whole passes over `ops` until `seconds` have gone and at least
    `min_passes` passes are done, calling `between` between passes.  With
    `probe` given, also time it at PROBES evenly spaced places in each pass
    (or before every operation, if there are fewer), apart from the ops."""
    out = Loop()
    step = -(-len(ops) // PROBES)
    deadline = time.perf_counter() + seconds
    while True:
        busy = 0.0
        for i, op in enumerate(ops):
            if probe is not None and i % step == 0:
                t0 = time.perf_counter()
                probe()
                out.probe_ms.append((time.perf_counter() - t0) * 1e3)
            if tracer is not None:
                tracer.op = out.attempted
            if op.reset is not None:
                op.reset()
            t0 = time.perf_counter()
            try:
                answer = op.run()
            except Exception as exc:  # an exception is a failed operation
                answer = exc
            dt = time.perf_counter() - t0
            try:
                ok = not isinstance(answer, Exception) and bool(op.check(answer))
            except Exception:  # a malformed answer fails its check
                ok = False
            busy += dt
            out.latencies_ms.append(dt * 1e3)
            out.attempted += 1
            out.failed += not ok
            if not out.pass_s:
                out.answers.append(answer)
        out.pass_s.append(busy)
        if time.perf_counter() >= deadline and len(out.pass_s) >= min_passes:
            return out
        if between is not None:
            between()


def _random_reduced(rng: random.Random, gens, length: int) -> list[tuple[int, int]]:
    """A freely reduced word of the given length over the generators `gens`."""
    out: list[tuple[int, int]] = []
    while len(out) < length:
        letter = (rng.choice(gens), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return out


class TreeWords:
    """Seeded words over a generated space; with `member` set, a word is
    built to lie in the subgroup at the given chain level (where it can)."""

    def __init__(self, rng: random.Random, space: gen.GenSpace):
        self.rng = rng
        self.space = space
        self.thresholds = reference.chain_thresholds(space)
        self._parts = {t: reference.partition(space, t) for t in self.thresholds}

    def boolean(self, size: int, t: Fraction, member: bool) -> frozenset[int]:
        pts = set(self.rng.sample(range(self.space.n), size))
        if member:  # repair every odd block
            for b in self._parts[t][0]:
                inside = [p for p in b if p in pts]
                if len(inside) % 2:
                    outside = [p for p in b if p not in pts]
                    pts ^= {self.rng.choice(outside or inside)}
        return frozenset(pts) or frozenset({0})

    def abelian(self, size: int, mass: int, t: Fraction, member: bool) -> dict[int, int]:
        coeffs = {
            p: self.rng.choice((1, -1)) * self.rng.randint(1, mass)
            for p in self.rng.sample(range(self.space.n), size)
        }
        if member:  # cancel every class sum
            for b in self._parts[t][0]:
                inside = [p for p in b if p in coeffs]
                s = sum(coeffs[p] for p in inside)
                if s and len(inside) > 1:
                    p = self.rng.choice(inside)
                    coeffs[p] -= s
                    if coeffs[p] == 0:
                        del coeffs[p]
        return coeffs or {0: 1}

    def free(self, length: int, t: Fraction, member: bool) -> list[tuple[int, int]]:
        n = self.space.n
        if not member:
            return _random_reduced(self.rng, range(n), length)
        half = _random_reduced(self.rng, range(n), length // 2)
        bl, index = self._parts[t]
        back = [(self.rng.choice(bl[index[p]]), -s) for p, s in reversed(half)]
        return half + back  # maps to r r^-1 in the quotient


def _trivial_cache() -> dict:
    return getattr(freegroup._trivial_sequences, "cache", {})


class Workload:
    """What the benchmark reads of every workload from outside the package."""

    def peak_rss_mb(self) -> float:
        """Peak resident memory of this process."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def trivial_cache_entries(self) -> int:
        """Entries the F(X) brute force's trivial-word cache has taken."""
        return len(_trivial_cache())


# --- cli -------------------------------------------------------------------


class CliWorkload(Workload):
    """CLI requests through `nafree.cli.main`: commands on one generated
    workspace, and the whole property suite, claim by claim, on the bundled
    workspace.

    The requests run in this process under click's `CliRunner`, on 24
    points: as fresh processes, or on 48 points, a request takes long enough
    that a slow spell of a shared host covers every pass of it, and run
    medians moved by up to 29 %.  Interpreter start and `import nafree.cli`
    are timed in fresh processes by the traced run.
    """

    name = "cli"
    N, DEPTH = 24, 6
    # validate checks the matrix four times; claim5 and l_eps on the bundled
    # workspace cost about as much, so these three make the tail, and the
    # median falls among the single-load requests on the generated workspace
    KINDS = ("validate", "norm", "member:B", "member:A", "member:F",
             "report:claim6", "report:claim7") + tuple(
                 f"report:{claim}:bundled" for claim in report.CLAIMS)

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.path = workdir / "cli_workspace.json"
        self.bundled = root / "src" / "nafree" / "data" / "workspace.json"

    def setup(self) -> None:
        self.space = gen.random_space(random.Random(self.seed), self.N, self.DEPTH)
        self.inputs = [self.space.stats()]
        self.path.write_text(gen.workspace_json(self.space))
        self.ws = serialize.load_workspace(str(self.path))
        self.bundled_ws = serialize.load_workspace(str(self.bundled))

    def _requests(self) -> list[tuple[str, list[str], tuple[int, Any]]]:
        """(kind, argv, (expected exit code, expected stdout or payload))."""
        rng = random.Random(self.seed * 7919 + 1)
        words = TreeWords(rng, self.space)
        names, ws, file = self.space.names, self.ws, str(self.path)
        out = []
        for i, kind in enumerate(self.KINDS):
            if kind == "validate":
                text = (f"space: {self.N} points, ok\n"
                        f"chain balls: {self.DEPTH + 1} levels, ok\n"
                        "action swap: group of order 2, isometric, ok\nok\n")
                out.append((kind, ["validate", file], (0, text)))
            elif kind == "norm":
                pts = rng.sample(range(self.N), rng.randint(6, 10))
                u = BooleanWord(frozenset(pts), self.N)
                cert = boolean.graev_norm_fast(u, ws.aug)
                brute = boolean.graev_norm_bruteforce(u, ws.aug, 12)
                payload = serialize.encode_certificate(cert, ws.aug)
                payload["oracle"] = {"value": serialize.format_rational(brute.value),
                                     "agrees": brute.value == cert.value}
                ref = reference.graev_norm(self.space, frozenset(pts))
                code = 0 if cert.value == brute.value == ref else -1
                argv = ["norm", file, json.dumps([names[p] for p in pts]), "--check", "--json"]
                out.append((kind, argv, (code, payload)))
            elif kind.startswith("member"):
                group = kind[-1]
                level = rng.randrange(len(words.thresholds))
                member = i % 2 == 0  # B and F members, A not
                t = words.thresholds[level]
                bl = reference.partition(self.space, t)[0]
                payload = {"blocks": [sorted(names[p] for p in b) for b in bl]}
                if group == "B":
                    pts = words.boolean(rng.randint(1, 12), t, member)
                    word = [names[p] for p in sorted(pts)]
                    payload["member"] = reference.boolean_member(self.space, t, pts)
                    payload["parity"] = [len(pts & set(b)) % 2 == 0 for b in bl]
                elif group == "A":
                    coeffs = words.abelian(rng.randint(1, 6), 3, t, member)
                    word = {names[p]: c for p, c in coeffs.items()}
                    sums = reference.class_sums(self.space, t, coeffs)
                    payload["member"] = not any(sums)
                    payload["class_sums"] = sums
                else:
                    letters = words.free(rng.randint(2, 32), t, member)
                    word = [names[p] + ("'" if s < 0 else "") for p, s in letters]
                    image = reference.free_image(self.space, t, letters)
                    payload["member"] = not image
                    payload["quotient_image_length"] = len(image)
                argv = ["member", file, json.dumps(word), "-g", group,
                        "--level", str(level), "--json"]
                out.append((kind, argv, (0 if payload["member"] else 1, payload)))
            else:
                _, claim, *bundled = kind.split(":")
                target = (self.bundled_ws, str(self.bundled)) if bundled else (ws, file)
                rows = report.run_report(target[0], claim)
                code = 0 if all(r["passed"] for r in rows.values()) else -1
                argv = ["report", target[1], "--only", claim, "--json"]
                out.append((kind, argv, (code, rows)))
        return out

    def prepare(self) -> None:
        self.requests = self._requests()

    def ops(self, tracer: Optional[Tracer]) -> list[Op]:
        runner = CliRunner()

        def request(kind: str, argv: list[str]) -> tuple[int, str, str]:
            if tracer is None:
                res = runner.invoke(cli.main, argv)
            else:
                with tracer.span(f"cli.{kind.split(':')[0]}"):
                    res = runner.invoke(cli.main, argv)
            if res.exception is not None and not isinstance(res.exception, SystemExit):
                if tracer is not None:
                    tracer.failed["cli"] += 1
                return res.exit_code, res.stdout, "Traceback: " + repr(res.exception)
            return res.exit_code, res.stdout, res.stderr

        def check(answer, expected) -> bool:
            code, stdout, stderr = answer
            want_code, want = expected
            if code != want_code or "Traceback" in stderr:
                return False
            return stdout == want if isinstance(want, str) else json.loads(stdout) == want

        return [Op(kind, lambda k=kind, a=argv: request(k, a), lambda ans, e=expected: check(ans, e))
                for kind, argv, expected in self.requests]

# --- query -----------------------------------------------------------------


class QueryWorkload(Workload):
    """One process, one n = 64 workspace, a seeded stream of queries."""

    name = "query"
    N, DEPTH = 64, 6
    # per block of 20 queries; the median falls among the fast norms and the
    # tail among the brute-force cross-checks
    MIX = ("norm",) * 9 + ("brute",) * 3 + ("B",) * 3 + ("A",) * 2 + ("F",) * 3
    BLOCKS = 100
    BOOL_ORACLE_MAX = 10  # closure oracle visits up to 2^9 words
    AB_ORACLE_MAX = 4  # bounded search: support and length at most this

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.path = workdir / "query_workspace.json"

    def setup(self) -> None:
        self.space = gen.random_space(random.Random(self.seed), self.N, self.DEPTH)
        self.inputs = [self.space.stats()]
        self.path.write_text(gen.workspace_json(self.space))
        self.ws = serialize.load_workspace(str(self.path))

    def _dist(self, a: int, b: int) -> Fraction:
        """Distance on the zero-extended space, from the generator's matrix."""
        if a == b:
            return Fraction(0)
        if self.N in (a, b):
            x = b if a == self.N else a
            return max(self.space.dist[x][0], Fraction(1))
        return self.space.dist[a][b]

    def _certificate_ok(self, cert, pts: frozenset[int], value: Fraction) -> bool:
        supp = set(pts) | ({self.N} if len(pts) % 2 else set())
        ends = [t for pair in cert.witness.pairs for t in pair]
        return (cert.value == value and sorted(ends) == sorted(supp)
                and max((self._dist(a, b) for a, b in cert.witness.pairs), default=0) == value)

    def prepare(self) -> None:
        rng = random.Random(self.seed * 7919 + 2)
        words = TreeWords(rng, self.space)
        levels = self.ws.chains["balls"].levels
        if [t for t, _ in levels] != words.thresholds:
            raise RuntimeError("the loaded ball chain has the wrong thresholds")
        kinds = list(self.MIX * self.BLOCKS)
        rng.shuffle(kinds)
        count = dict.fromkeys(self.MIX, 0)
        aug, n_levels = self.ws.aug, len(levels)
        self.queries = []
        # sizes, levels and verdicts cycle through fixed ranges, so every seed
        # gives the same mix of costs; the seed picks the points
        for kind in kinds:
            c = count[kind]
            count[kind] += 1
            if kind in ("norm", "brute"):
                # two support-10 brute-force checks per pass make the tail
                size = 11 + c % 14 if kind == "norm" else 9 + c if c < 2 else 1 + c % 8
                pts = frozenset(rng.sample(range(self.N), size))
                u = BooleanWord(pts, self.N)
                value = reference.graev_norm(self.space, pts)
                if kind == "norm":
                    run = lambda u=u: boolean.graev_norm_fast(u, aug)  # noqa: E731
                    check = lambda c, p=pts, v=value: self._certificate_ok(c, p, v)  # noqa: E731
                else:
                    run = lambda u=u: (boolean.graev_norm_fast(u, aug),  # noqa: E731
                                       boolean.graev_norm_bruteforce(u, aug))
                    check = lambda r, p=pts, v=value: (  # noqa: E731
                        self._certificate_ok(r[0], p, v) and r[1].value == v)
                self.queries.append(Op(kind, run, check))
                continue
            small, k = (c % 2 == 0, c // 2) if kind != "F" else (False, c)
            level, member = k % n_levels, (k // n_levels) % 2 == 0
            t, part = words.thresholds[level], levels[level][1]
            if kind == "B":
                size = 1 + k % self.BOOL_ORACLE_MAX if small \
                    else self.BOOL_ORACLE_MAX + 1 + k % (self.N - self.BOOL_ORACLE_MAX)
                pts = words.boolean(size, t, member)
                want = reference.boolean_member(self.space, t, pts)
                if len(pts) <= self.BOOL_ORACLE_MAX:
                    want = want if self._boolean_oracle(pts, t) == want else None
                u = BooleanWord(pts, self.N)
                run = lambda u=u, e=part: boolean.eps_subgroup_membership(u, e)  # noqa: E731
            elif kind == "A":
                coeffs = words.abelian(1 + k % 3, 1, t, member) if small \
                    else words.abelian(4 + k % 29, 3, t, member)
                want = not any(reference.class_sums(self.space, t, coeffs))
                if len(coeffs) <= self.AB_ORACLE_MAX and \
                        sum(map(abs, coeffs.values())) <= self.AB_ORACLE_MAX:
                    want = want if self._abelian_oracle(coeffs, t) == want else None
                w = AbelianWord(tuple(coeffs.items()), self.N)
                run = lambda w=w, e=part: abelian.ab_eps_membership(w, e)  # noqa: E731
            else:
                letters = words.free(1 + k % 64, t, member)
                want = not reference.free_image(self.space, t, letters)
                w = FreeWord(tuple(letters), self.N)
                run = lambda w=w, e=part: freegroup.eps_tilde_membership(w, e)  # noqa: E731
            # a reference that disagrees with its oracle fails every time
            self.queries.append(Op(kind, run, lambda ans, want=want: ans == want))

    def _restricted(self, support: list[int], t: Fraction) -> Partition:
        """The chain level cut down to the word's support: membership of a
        word depends only on how its own points fall into blocks."""
        pos = {p: i for i, p in enumerate(support)}
        blocks = [frozenset(pos[p] for p in b if p in pos)
                  for b in reference.partition(self.space, t)[0]]
        return Partition(tuple(b for b in blocks if b), len(support))

    def _boolean_oracle(self, pts: frozenset[int], t: Fraction) -> bool:
        support = sorted(pts)
        word = BooleanWord(frozenset(range(len(support))), len(support))
        return oracles.boolean_membership_closure(word, self._restricted(support, t))

    def _abelian_oracle(self, coeffs: dict[int, int], t: Fraction) -> bool:
        support = sorted(coeffs)
        word = AbelianWord(tuple((i, coeffs[p]) for i, p in enumerate(support)), len(support))
        return oracles.abelian_membership_search(word, self._restricted(support, t))

    def ops(self, tracer: Optional[Tracer]) -> list[Op]:
        return self.queries

# --- fdelta ----------------------------------------------------------------


def _discrete_dbar(n: int) -> tuple[int, list[list[Fraction]]]:
    size = 2 * n + 1
    return n, [[Fraction(0 if i == j else 1) for j in range(size)] for i in range(size)]


def _two_scale_dbar() -> tuple[int, list[list[Fraction]]]:
    rows = [[Fraction(0 if i == j else 1) for j in range(5)] for i in range(5)]
    for a, b in ((0, 1), (2, 3)):
        rows[a][b] = rows[b][a] = Fraction(1, 2)
    return 2, rows


class FDeltaWorkload(Workload):
    """`graev_delta_bruteforce` on seeded pairs with |u^-1 v| spread over 1..6."""

    name = "fdelta"
    SEEDED, SHAPE = 3, (2, 2)  # three generators and e, in two clusters
    LENGTHS = range(1, 7)
    # distinct generators in u^-1 v for the pairs of one space and length:
    # the cost of the brute force grows with it, so it cycles, not drawn
    GENERATOR_COUNTS = (1, 2, 3, 1, 2, 3)

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.cleared = 0  # cache entries thrown away before δ calls

    def setup(self) -> None:
        rng = random.Random(self.seed)
        raw = [_discrete_dbar(1), _discrete_dbar(2), _two_scale_dbar()]
        raw += [(sum(self.SHAPE) - 1, gen.symmetrized_matrix(rng, self.SHAPE))
                for _ in range(self.SEEDED)]
        self.spaces = [SymmetrizedSpace(n, m) for n, m in raw]
        self.inputs = [{"generators": n, "distinct_distances": len({v for r in m for v in r} - {0})}
                       for n, m in raw]
        for dbar in self.spaces:
            if not freegroup.check_grau_conditions(dbar).ok:
                raise RuntimeError("generated symmetrized metric is not Graev-valid")
        self.pairs = []  # (space, u, v, reduced u^-1 v)
        for dbar in self.spaces:
            n = dbar.n
            gens = range(n)
            for length in self.LENGTHS:
                for k, g in enumerate(self.GENERATOR_COUNTS):
                    if length <= 2 and k == 0:  # a pair of letters, or e and a letter
                        a = _random_reduced(rng, gens, 1)
                        b = _random_reduced(rng, gens, 1)
                        if length == 2:
                            while b == a:
                                b = _random_reduced(rng, gens, 1)
                            u, v = FreeWord(tuple(a), n), FreeWord(tuple(b), n)
                        else:
                            u, v = FreeWord((), n), FreeWord(tuple(a), n)
                    else:
                        # draw over g generators until each of them occurs
                        some = rng.sample(gens, min(g, n, length))
                        w = _random_reduced(rng, some, length)
                        while len({p for p, _ in w}) != len(some):
                            w = _random_reduced(rng, some, length)
                        u = FreeWord(tuple(_random_reduced(rng, gens, rng.randint(0, 3))), n)
                        v = FreeWord(u.letters + tuple(w), n)
                    w = freegroup.fg_multiply(freegroup.fg_invert(u), v)
                    self.pairs.append((dbar, u, v, w))

    def prepare(self) -> None:
        self.refs = []
        for dbar, u, v, w in self.pairs:
            value = reference.graev_delta(dbar.dist, dbar.n, w.letters)
            if len(u) <= 1 and len(v) <= 1:  # on letters delta is the metric itself
                ix = [dbar.e if not x.letters else dbar.letter_index(x.letters[0]) for x in (u, v)]
                if dbar.d(*ix) != value:
                    value = None
            self.refs.append(value)

    def ops(self, tracer: Optional[Tracer]) -> list[Op]:
        # both orders against one reference also checks symmetry; every call
        # starts from an empty trivial-word cache, so each one pays for the
        # enumeration it needs
        ops = []
        for (dbar, u, v, _), want in zip(self.pairs, self.refs):
            for a, b in ((u, v), (v, u)):
                ops.append(Op(
                    "delta",
                    lambda a=a, b=b, d=dbar: freegroup.graev_delta_bruteforce(a, b, d),
                    lambda ans, want=want: want is not None and ans == want,
                    self._clear_cache,
                ))
        return ops

    def _clear_cache(self) -> None:
        cache = _trivial_cache()
        self.cleared += len(cache)
        cache.clear()

    def trivial_cache_entries(self) -> int:
        return self.cleared + super().trivial_cache_entries()


WORKLOADS = {w.name: w for w in (CliWorkload, QueryWorkload, FDeltaWorkload)}


def startup_ms(root: Path, repeats: int = 5) -> dict[str, float]:
    """Median wall time of a bare interpreter, and what `import nafree.cli`
    adds to it, each in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def median_ms(code: str) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                           check=True, timeout=SUBPROCESS_TIMEOUT_S)
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    bare = median_ms("pass")
    return {"cli.interpreter_ms": bare, "cli.import_ms": median_ms("import nafree.cli") - bare}
