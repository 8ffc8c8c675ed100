"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload cra-model --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the engine is imported from
``src/`` there and nowhere else. Set-up runs ``SETUP_REPEATS`` times
(and more, up to a second) outside the clock; then timed passes repeat until ``--seconds`` have
passed (at least one), each starting from cold engine caches as a fresh
CLI process would. The outputs of the first pass are checked against the
independent references in ``oracles.py``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of one traced set-up and pass, and ``trace.overhead_s``, the
traced pass time minus that of an untraced pass made just before it.
Earlier lines are a readable account of the run: work counts, phase
times and, when traced, the time of each layer under each parent.

Every run uses ``PYTHONHASHSEED=0``: the process re-executes itself
with it if needed. Exact work counts are written to ``.bench_state/`` in the checkout; a
later run with the same workload and seed that counts differently fails
a check. Exit codes: 0 after a run (check failures are reported in the
result), 2 when the engine source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".bench_state"
HASH_SEED = "0"
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 200
# Work counts compared between runs of the same workload and seed.
TRACED_WORK = (
    ("classify.rule", "hosts"), ("classify.rule", "steps"),
    ("classify.universe", "hosts"), ("conditions.report", "occurrences"),
    ("rewriting.scan", "matches"), ("analysis.overlaps", "found"),
)


def load_engine():
    """Import gradcons from this checkout's ``src/``, or exit with code 2."""
    package = ROOT / "src" / "gradcons"
    if not (package / "__init__.py").is_file():
        print(f"error: no engine source at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import gradcons

    if Path(gradcons.__file__).resolve().parent != package.resolve():
        print(f"error: gradcons was imported from {gradcons.__file__}, not {package}",
              file=sys.stderr)
        sys.exit(2)
    return gradcons


def clear_engine_caches() -> None:
    """Empty every functools cache in the engine's modules."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "gradcons" or name.startswith("gradcons.")):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def timed_setup(workload, seed: int, repeats: int, checks, clock):
    """Set up ``repeats`` times, and more (up to ``SETUP_MAX_REPEATS``)
    until ``SETUP_MIN_S`` have passed, so short set-ups are timed often."""
    times, first = [], None
    started = time.perf_counter()
    while len(times) < repeats or (
        repeats > 1 and len(times) < SETUP_MAX_REPEATS
        and time.perf_counter() - started < SETUP_MIN_S
    ):
        start = clock()
        inputs = workload.setup(seed)
        times.append(clock() - start)
        if first is None:
            first = inputs
        else:
            checks.expect(inputs == first, "set-up gives the same inputs for the same seed")
    return first, times


def compare_state(key: str, work: dict, checks) -> None:
    """Fail a check when an earlier run with the same key counted otherwise."""
    path = STATE_DIR / f"{key}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        checks.equal(work, earlier, f"work counts repeat for {key}")
        return
    STATE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(work, sort_keys=True))
    tmp.replace(path)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    from speed import SpeedClock
    from tracer import MOVES, Tracer, layer_metrics
    from workloads import Checks

    checks = Checks()
    # Traced runs read plain wall time: the probe's slices would land in
    # whichever layer they interrupt.
    clock = SpeedClock()
    if not trace:
        clock.start()
    inputs, setup_times = timed_setup(workload, seed, 1 if trace else SETUP_REPEATS, checks, clock)
    passes = []
    started = time.perf_counter()
    while not passes or (not trace and time.perf_counter() - started < seconds):
        if passes:
            clear_engine_caches()
        passes.append(workload.run_pass(inputs, clock))
    if not trace:
        clock.stop()
    first = passes[0]
    workload.check(inputs, first, checks)
    for p in passes[1:]:
        checks.equal(p.work, first.work, "work counts repeat across passes")
    work = dict(first.work)

    print(f"workload {workload.name}, seed {seed}, {len(passes)} pass(es)")
    print("set-up s: " + ", ".join(f"{t:.4f}" for t in setup_times))
    print("pass wall s: " + ", ".join(f"{p.wall_s:.4f}" for p in passes))
    steps = [t for p in passes for t in p.step_times]
    print(f"steps timed: {len(steps)}; report s {first.report_s:.4f}; scan s {first.scan_s:.4f}")
    if clock.slowdowns:
        q = statistics.quantiles(clock.slowdowns, n=4)
        print(f"reference slowdown over {len(clock.slowdowns)} slices: "
              f"quartiles {q[0]:.3f} {q[1]:.3f} {q[2]:.3f}; "
              f"wall s {time.perf_counter() - started:.3f}")

    if trace:
        clear_engine_caches()
        tracer = Tracer()
        with tracer:
            traced_inputs, _ = timed_setup(workload, seed, 1, checks, clock)
            traced = workload.run_pass(traced_inputs, clock)
        checks.equal(traced.work, first.work, "traced pass does the same work")
        for layer, key in TRACED_WORK:
            work[f"{layer}.{key}"] = tracer.layer(layer).counts.get(key, 0)
        for name, want in workload.traced_counts(inputs).items():
            checks.equal(work[name], want, f"traced {name}")
        print(f"wrapped: {', '.join(tracer.wrapped)}")
        print(f"{'layer':<24}{'parent':<24}{'calls':>10}{'total s':>12}{'self s':>12}")
        for (layer, parent), agg in sorted(tracer.aggregates.items()):
            print(f"{layer:<24}{parent:<24}{agg.calls:>10}{agg.total_s:>12.4f}{agg.self_s:>12.4f}")
        for layer, moves in MOVES.items():
            print(f"{layer} should move: {moves}")
        metrics = {name: metric(v, unit) for name, (v, unit) in layer_metrics(tracer).items()}
        metrics["trace.overhead_s"] = metric(traced.wall_s - first.wall_s, "s")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
            "report_s": metric(statistics.median(p.report_s for p in passes), "s"),
            "scan_s": metric(statistics.median(p.scan_s for p in passes), "s"),
            "step_p50_s": metric(statistics.median(steps), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    compare_state(f"{workload.name}-seed{seed}-trace{int(trace)}", work, checks)
    print("work: " + json.dumps(work, sort_keys=True))
    for failure in checks.failures[:20]:
        print(f"CHECK FAILED: {failure}")
    failed = len(checks.failures)
    if not trace:
        passed = (checks.attempted - failed) / checks.attempted
        metrics["check_pass_ratio"] = metric(passed, "ratio")
    return {"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
            "metrics": metrics}


def fix_hash_seed() -> None:
    """Re-execute this process with string hashing fixed.

    With random hash seeds, dictionary layouts differ between processes,
    and the same pass takes a few percent longer or shorter from one run
    to the next. ``exec`` replaces the process; it starts no other.
    """
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if argv is None:
        fix_hash_seed()
    load_engine()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
