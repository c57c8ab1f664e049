"""Spans around calls into the package's public functions.

The tracer rebinds each traced function, wherever a `nafree` module holds
it under its own name, to a wrapper that records a span: name, start, end,
parent span and operation id.  Spans stay in memory and are written out when
the run ends.  No source file of the package changes; `uninstall` puts every
original back.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from nafree.report import CLAIMS


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _triples(args, kwargs, out) -> int:
    n = len(args[0])
    return n * (n - 1) * (n - 2)


def _configurations(args, kwargs, out) -> int:
    size = len(args[0].points)
    size += size % 2
    return _double_factorial(size - 1) if size else 0


def _ball_size(args, kwargs, out) -> int:
    return len(out)


def _report_span(args, kwargs) -> str:
    only = args[1] if len(args) > 1 else kwargs.get("only")
    return f"report.{only}" if only else "report.run_report"


# (module, attribute, counter name, counter) for every traced function.
TARGETS = (
    ("serialize", "load_workspace", None, None),
    ("serialize", "parse_space", None, None),
    ("serialize", "parse_chain", None, None),
    ("spaces", "validate_ultrametric", "triples", _triples),
    ("spaces", "extend_with_zero", None, None),
    ("spaces", "ball_chain", None, None),
    ("spaces", "ball_partition", None, None),
    ("boolean", "graev_norm_fast", None, None),
    ("boolean", "graev_norm_bruteforce", "configurations", _configurations),
    ("boolean", "eps_subgroup_membership", None, None),
    ("boolean", "ball_equals_subgroup", None, None),
    ("abelian", "ab_eps_membership", None, None),
    ("abelian", "enumerate_Bn", None, None),
    ("abelian", "bn_avoidance_check", None, None),
    ("freegroup", "eps_tilde_membership", None, None),
    ("freegroup", "quotient_hom", None, None),
    ("freegroup", "v_psi_ball", "ball_size", _ball_size),
    ("freegroup", "graev_delta_bruteforce", None, None),
    ("freegroup", "check_grau_conditions", None, None),
    ("duality", "universal_extension", None, None),
    ("report", "run_report", None, None),
)

MODULES = ("cli", "serialize", "spaces", "finite_groups", "boolean", "abelian",
           "freegroup", "duality", "report")
CLI_COMMANDS = ("validate", "norm", "member", "report")


def span_names() -> list[str]:
    names = [f"cli.{c}" for c in CLI_COMMANDS]
    names += [f"{m}.{a}" for m, a, _, _ in TARGETS if m != "report"]
    names += ["finite_groups.from_permutations", "finite_groups.IsometricAction"]
    names += [f"report.{c}" for c in CLAIMS]
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"cli.interpreter_ms": "ms", "cli.import_ms": "ms"}
    for name in span_names():
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.calls"] = "count"
    for m, a, counter, _ in TARGETS:
        if counter:
            units[f"{m}.{a}.{counter}"] = "count"
    units["freegroup.trivial_cache_entries"] = "count"
    for m in MODULES:
        units[f"{m}.failed"] = "count"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Spans and counters of one traced run.

    Self time and call counts are summed as spans close; the first
    `KEEP_SPANS` span records are also kept for `dump`, which bounds memory
    on workloads that make millions of calls.
    """

    KEEP_SPANS = 100_000

    def __init__(self) -> None:
        self.spans: list = []  # (index, name, start_ns, end_ns, parent index, op id)
        self.total = 0
        self.op = -1
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []  # [span index, ns in child spans, start ns]
        self._undo: list = []

    @contextmanager
    def span(self, name: str):
        frame = [self.total, 0, time.perf_counter_ns()]
        self.total += 1
        self._stack.append(frame)
        raised = True
        try:
            yield
            raised = False
        finally:
            end = time.perf_counter_ns()
            index, child_ns, start = self._stack.pop()
            duration = end - start
            self.self_ns[name] += duration - child_ns
            self.calls[name] += 1
            if raised:
                self.failed[name.split(".", 1)[0]] += 1
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[1] += duration
            if index < self.KEEP_SPANS:
                self.spans.append((index, name, start, end, parent[0] if parent else -1, self.op))

    def wrap(self, name, fn, counter=None, counter_fn=None, name_fn=None):
        def traced(*args, **kwargs):
            with self.span(name_fn(args, kwargs) if name_fn else name):
                out = fn(*args, **kwargs)
            if counter_fn is not None:
                self.counters[counter] += counter_fn(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "nafree" and not modname.startswith("nafree."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        import nafree.cli  # noqa: F401  (loads every module that imports a target)
        import nafree.oracles  # noqa: F401
        from nafree import finite_groups

        for modname, attr, counter, counter_fn in TARGETS:
            mod = sys.modules[f"nafree.{modname}"]
            original = getattr(mod, attr)
            name_fn = _report_span if (modname, attr) == ("report", "run_report") else None
            self._rebind(original, self.wrap(
                f"{modname}.{attr}", original,
                f"{modname}.{attr}.{counter}", counter_fn, name_fn,
            ))
        table = finite_groups.FiniteGroupTable
        perms = table.__dict__["from_permutations"]
        setattr(table, "from_permutations", classmethod(
            self.wrap("finite_groups.from_permutations", perms.__func__)))
        self._undo.append((table, "from_permutations", perms))
        action = finite_groups.IsometricAction
        init = action.__dict__["__init__"]
        setattr(action, "__init__", self.wrap("finite_groups.IsometricAction", init))
        self._undo.append((action, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self time and call count per span name, plus the counters."""
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.self_ms"] = self.self_ns.get(name, 0) / 1e6
            out[f"{name}.calls"] = self.calls.get(name, 0)
        for m, a, counter, _ in TARGETS:
            if counter:
                out[f"{m}.{a}.{counter}"] = self.counters.get(f"{m}.{a}.{counter}", 0)
        for m in MODULES:
            out[f"{m}.failed"] = self.failed.get(m, 0)
        return out

    def dump(self, path) -> None:
        """Write the kept spans, one JSON array per line."""
        with open(path, "w") as fh:
            for record in sorted(self.spans):
                fh.write(json.dumps(record) + "\n")
