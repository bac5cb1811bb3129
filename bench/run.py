"""noarb benchmark: one workload, one closed-loop client, one thread.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the library is imported from ``src/``.
The run makes the workload's inputs from ``--seed``, then runs one
operation at a time for ``--seconds`` seconds, checks every answer, and
prints its figures, one per line, with the JSON result as the last line.
It exits 1 when any answer is wrong and 2 when the library is missing.

``--trace 0`` gives the end-to-end figures.  Times are reported raw and in
units of the drift reference (``refloop``), timed between every two
operations; ``setup_s`` is the median of several set-ups, in reference units
quoted in seconds at the reference's nominal speed (``refloop.NOMINAL_S``).
A run goes on past ``--seconds`` until it ends on a whole cycle of its
workload and has ``TAIL_BEYOND`` samples beyond its tail percentile.

``--trace 1`` gives the per-layer figures from ``tracer``.  It runs the
workload's first ``trace_ops`` operations (a fixed count, so counts repeat
exactly for a seed; ``--seconds`` does not apply), each once untraced and
once traced in alternating order, and reports the traced time over the
untraced one as ``trace.overhead``.  Spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import refloop  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: Reference time sampled after each set-up, as a share of the set-up's own.
SETUP_REF_SHARE = 0.5
#: Samples that must lie beyond the reported tail percentile: a run goes on
#: past ``--seconds`` until it has them.
TAIL_BEYOND = 10


def use_source_tree() -> bool:
    """Put ``src/`` first on the import path; False when it holds no noarb."""
    if not (SRC / "noarb" / "__init__.py").is_file():
        print(f"bench: no noarb package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def set_up(workload, seed: int, workdir: Path) -> None:
    """Import noarb afresh (dropping any earlier import) and make the inputs."""
    for name in [m for m in sys.modules if m == "noarb" or m.startswith("noarb.")]:
        del sys.modules[name]
    workload.setup(importlib.import_module("noarb"), seed, workdir)


def tail_rank(n: int, pct: int) -> int:
    """Nearest rank of the ``pct`` percentile among ``n`` samples."""
    return max(1, -(-pct * n // 100))


def percentile(values, pct: int):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = tail_rank(len(ordered), pct)
    return ordered[rank - 1], len(ordered) - rank


def min_ops(pct: int) -> int:
    """Fewest operations that leave ``TAIL_BEYOND`` samples beyond ``pct``."""
    n = TAIL_BEYOND
    while n - tail_rank(n, pct) < TAIL_BEYOND:
        n += 1
    return n


def run_one(workload, i: int):
    """One timed operation: (duration in ns, result, error text or None)."""
    start = time.perf_counter_ns()
    try:
        result = workload.run(i)
    except Exception as exc:  # an operation that raises counts as failed
        return time.perf_counter_ns() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter_ns() - start, result, None


def problem(workload, i: int, result, error) -> str | None:
    """What is wrong with operation i's answer, or None when it is right."""
    if error:
        return error
    try:
        return workload.check(i, result)
    except Exception as exc:  # a library call inside the check failed
        return f"check raised {type(exc).__name__}: {exc}"


def setup_refs(workload, seed: int, workdir: Path):
    """Set up ``SETUP_REPEATS`` times: raw durations and their cost in refs."""
    setup_ns, refs = [], [refloop.sample()]
    for _ in range(SETUP_REPEATS):
        vars(workload).clear()  # each set-up starts from the same heap
        gc.collect()
        start = time.perf_counter_ns()
        set_up(workload, seed, workdir)
        setup_ns.append(time.perf_counter_ns() - start)
        refs.append(refloop.sample(setup_ns[-1], SETUP_REF_SHARE))
    return setup_ns, refloop.in_refs(setup_ns, refs)


def end_to_end(workload, seed: int, seconds: float, workdir: Path):
    setup_ns, setup_costs = setup_refs(workload, seed, workdir)

    durations, refs, failures = [], [refloop.sample()], []
    deadline = time.perf_counter() + seconds
    floor = min_ops(workload.tail_pct)
    i = 0
    # stop on a whole cycle, so every run holds the same mix of operations,
    # and only once the tail percentile has enough samples beyond it
    while i % workload.cycle or i < floor or time.perf_counter() < deadline:
        ns, result, error = run_one(workload, i)
        durations.append(ns)
        refs.append(refloop.sample(ns))
        error = problem(workload, i, result, error)
        if error:
            failures.append(f"op {i}: {error}")
        i += 1

    n = len(durations)
    costs = refloop.in_refs(durations, refs)
    raw_tail, beyond = percentile(durations, workload.tail_pct)
    tail_ref, _ = percentile(costs, workload.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setup_costs) * refloop.NOMINAL_S, "s"),
        "ops_per_ref": (n / sum(costs), "ops/ref"),
        "op_p50_ref": (statistics.median(costs), "ref"),
        "op_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "setup_raw_s": (statistics.median(setup_ns) / 1e9, "s"),
        "ops_per_s": (n / (sum(durations) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median(durations) / 1e6, "ms"),
        "op_tail_ms": (raw_tail / 1e6, "ms"),
        "fail_ratio": (len(failures) / n, "ratio"),
        "ref_ms": (statistics.median(refs) / 1e6, "ms"),
    }
    notes = [f"tail percentile p{workload.tail_pct}: {n} samples, {beyond} beyond it"]
    return n, failures, metrics, info, notes


def trace_loop(workload, n: int):
    """Run operations 0 to n-1 of a set-up workload, each once untraced and
    once traced, in alternating order.

    Returns the failures, the per-layer metrics with ``trace.overhead`` and
    ``ref.raw_ms``, and the tracer holding every span.
    """
    from tracer import LayerStats, Tracer

    tracer, stats = Tracer(), LayerStats()
    failures, plain_ns, traced_ns, refs = [], 0, 0, []
    for i in range(n):
        refs.append(refloop.sample())
        outcome = {}
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.begin(i)
            ns, result, error = run_one(workload, i)
            outcome[with_trace] = (result, error)
            if with_trace:
                spans = tracer.end()
                stats.add(spans, ns)
                tracer.release(spans)
                traced_ns += ns
            else:
                plain_ns += ns
        (result, error), plain = outcome[True], outcome[False]
        if plain != (result, error):
            error = "traced and untraced answers differ"
        error = problem(workload, i, result, error)
        if error:
            failures.append(f"op {i}: {error}")
    metrics = stats.metrics()
    metrics["trace.overhead"] = (traced_ns / plain_ns - 1, "ratio")
    metrics["ref.raw_ms"] = (statistics.median(refs) / 1e6, "ms")
    return failures, metrics, tracer


def traced(workload, seed: int, workdir: Path):
    set_up(workload, seed, workdir)
    n = workload.trace_ops
    failures, metrics, tracer = trace_loop(workload, n)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(span_file)
    notes = [f"{len(tracer.spans)} spans written to {span_file.relative_to(HERE.parent)}"]
    return n, failures, metrics, {}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_source_tree():
        return 2

    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            n, failures, metrics, info, notes = traced(workload, args.seed, workdir)
        else:
            n, failures, metrics, info, notes = end_to_end(
                workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name} seed {args.seed}: {n} operations, {len(failures)} failed")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    for line in notes:
        print(line)
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
