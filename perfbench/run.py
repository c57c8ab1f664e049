"""Benchmark for nafree: three seeded workloads, end to end or traced.

    python3 perfbench/run.py --workload query --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from anywhere inside a checkout; it imports the package from the
checkout's own `src/`.  With `--trace 0` it prints the end-to-end metrics,
with `--trace 1` the per-layer ones from a separate traced run.  Each metric
appears on its own line with its unit; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only when
every answer was correct.  `--workload all` runs every workload in a fresh
process of its own, so that no workload warms another's caches.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
NAMES = ("cli", "query", "fdelta")
# an operation's best pass needs a few passes
MIN_PASSES = 4
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB"}
# host speed: the time of a fixed loop that uses only the standard library,
# taken at fixed places in every pass.  Every time metric is scaled by
# HOST_REF_S over it, that is, to a host on which the loop takes HOST_REF_S
# (about its best time on the host the benchmark was tuned on)
HOST_REF_S = 0.002


def _host_loop() -> int:
    """Fixed work of the kinds nafree does: Fraction comparisons, tuple
    stacks, dict counts and JSON text."""
    best, stack, seen = Fraction(0), (), {}
    for i in range(1, 900):
        f = Fraction(i % 37, 1 + i % 11)
        if f > best:
            best = f
        stack = stack[:-1] if stack and stack[-1] == i % 5 else stack + (i % 7,)
        seen[stack[-3:]] = seen.get(stack[-3:], 0) + 1
    return len(json.dumps([str(best), sorted(seen.values())]))


def import_package() -> None:
    """Put the checkout's `src/` first on the path and import nafree from it."""
    src = ROOT / "src"
    if not (src / "nafree" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {src / 'nafree'}; run inside a checkout")
    sys.path.insert(0, str(src))
    import nafree

    if Path(nafree.__file__).resolve().parent != (src / "nafree").resolve():
        sys.exit(f"perfbench: imported nafree from {nafree.__file__}, not from {src}")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The latency at the highest percentile with ten samples above it, that
    percentile, and the count of samples above it."""
    s = sorted(latencies)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload in this process."""
    import workloads
    from tracing import Tracer, metric_units

    WORKDIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, ROOT, WORKDIR)
    setups = []
    cpus = sorted(os.sched_getaffinity(0))

    def set_up() -> None:
        # each set-up, and the pass after it, runs on the next of the CPUs
        # this process may use: a shared host slows one CPU at a time, for
        # minutes, and the scheduler may keep a process on the slow one
        os.sched_setaffinity(0, {cpus[len(setups) % len(cpus)]})
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)

    set_up()
    wl.prepare()
    notes = [f"inputs: {', '.join(json.dumps(i, separators=(',', ':')) for i in wl.inputs)}"]
    if not trace:
        # set-up runs again between passes, so that its samples, like the
        # passes, spread over the whole run and not over one slow spell
        loop = workloads.run_loop(wl.ops(None), seconds, None, MIN_PASSES, set_up, _host_loop)
        passes = len(loop.pass_s)
        n, size = len(loop.latencies_ms), len(loop.latencies_ms) // passes
        value, pct, above = tail(loop.latencies_ms)
        # slow spells of a shared host last seconds; an operation's best pass
        # is its cost, the pooled samples keep the spells for the tail
        best = [min(loop.latencies_ms[i::size]) for i in range(size)]
        # the host loop is measured like the operations: each place at its
        # best pass, averaged over the places.  (Scaling each sample by its
        # own loop time picks the loop's noise into the tail; the best of a
        # few loops timed between passes misses fast moments that the
        # operations' best passes catch.)
        places = len(loop.probe_ms) // passes
        probe_ms = statistics.mean(min(loop.probe_ms[i::places]) for i in range(places))
        scale = HOST_REF_S * 1e3 / probe_ms
        metrics = {
            "setup_s": statistics.median(setups) * scale,
            "wall_s": sum(best) / 1e3 * scale,
            "op_p50_ms": statistics.median(best) * scale,
            "op_tail_ms": value * scale,
            "peak_rss_mb": wl.peak_rss_mb(),
        }
        units = END_TO_END
        notes += [
            f"host loop: {probe_ms:.4f} ms at {places} places in a pass, each at its best of "
            f"{passes} passes; times are scaled to {HOST_REF_S * 1e3:g} ms",
            f"setup_s: median of {len(setups)} set-ups, one before each pass "
            f"(unscaled {statistics.median(setups):.6g} s)",
            f"wall_s: {size} operations, each at its best of {passes} passes "
            f"(unscaled {sum(best) / 1e3:.6g} s)",
            f"op_p50_ms: median of the {size} operations, each at its best of {passes} passes "
            f"(unscaled {statistics.median(best):.6g} ms)",
            f"op_tail_ms: p{pct:.3f} of all {n} operations, {above} above it "
            f"(unscaled {value:.6g} ms)",
        ]
        attempted, failed = loop.attempted, loop.failed
    else:
        base = workloads.run_loop(wl.ops(None), 0, None, MIN_PASSES)
        tracer = Tracer()
        entries = wl.trivial_cache_entries()
        tracer.install()
        try:
            loop = workloads.run_loop(wl.ops(tracer), seconds, tracer, MIN_PASSES)
        finally:
            tracer.uninstall()
        units = metric_units()
        metrics = tracer.layer_metrics()
        metrics["freegroup.trivial_cache_entries"] = wl.trivial_cache_entries() - entries
        metrics["trace.overhead"] = min(loop.pass_s) / min(base.pass_s)
        metrics.update(workloads.startup_ms(ROOT))
        metrics = {k: metrics[k] for k in units}
        tracer.dump(WORKDIR / f"spans-{name}-{seed}.jsonl")
        notes += [f"trace.overhead: best traced pass {min(loop.pass_s):.4f} s over best "
                  f"untraced pass {min(base.pass_s):.4f} s",
                 f"spans: {len(tracer.spans)} written to .perfbench/spans-{name}-{seed}.jsonl"]
        attempted = base.attempted + loop.attempted
        failed = base.failed + loop.failed
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "notes": notes,
    }


def run_all(names: list[str], seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process; prints a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(list(NAMES), args.seed, args.seconds, args.trace)
    name = args.workload
    print(f"perfbench: workload={name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}")
    try:
        result = run_one(name, args.seed, args.seconds, bool(args.trace))
    finally:
        for path in WORKDIR.glob("*.json"):
            path.unlink()
    for k, m in result["metrics"].items():
        print(f"{k:<48} {m['value']:>14.6g} {m['unit']}")
    # a ratio that reads 0 when all is well; the result line carries its parts
    ratio = result["failed"] / result["attempted"]
    print(f"{'failed_ratio':<48} {ratio:>14.6g} ratio")
    for note in result.pop("notes"):
        print(f"  {note}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
