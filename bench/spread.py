"""Medians and run-to-run spread of the benchmark's figures, as the contract
measures them.

    python3 bench/spread.py --workloads corpus crr --seeds 1 2 3 4 5 6 7 8 9 10
    python3 bench/spread.py --record set1
    python3 bench/spread.py --trace 1 --seeds 7 --record per_layer_seed7

Runs ``run.py`` once per workload and seed, one run at a time, each for the
contract's ``run_seconds``.  With ``--trace 0`` it prints for each end-to-end
metric the median over the runs and the distance between the first and third
quartiles as a share of that median, against the metric's bound.  With
``--trace 1`` it prints the median of each nonzero per-layer metric.
``--record NAME`` stores the same figures under ``NAME`` in
``bench/BASELINE.json``, next to what is already there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "BASELINE.json"
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(CONTRACT["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if proc.returncode:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(results: list[dict], bounds: dict) -> tuple[dict, float]:
    """Figures of one workload's runs, and its largest spread over its bound."""
    summary, worst = {"attempted_median": statistics.median(r["attempted"] for r in results)}, 0.0
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name not in bounds:
            median = statistics.median(values)
            if median:
                summary[name] = median
                print(f"  {name:40s} median {median:12.6g} {first['unit']}")
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        worst = max(worst, spread / bounds[name])
        summary[name] = {"median": median, "spread": spread, "unit": first["unit"]}
        print(f"  {name:14s} median {median:12.6g}  spread {spread:6.3f}"
              f"  bound {bounds[name]}  {'OVER' if spread > bounds[name] else ''}")
    return summary, worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in CONTRACT["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="NAME",
                        help="store the figures under NAME in bench/BASELINE.json")
    args = parser.parse_args()
    if not args.trace and len(args.seeds) < 2:
        parser.error("a spread needs at least two seeds")
    bounds = {} if args.trace else {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    record = {
        "seeds": args.seeds, "run_seconds": CONTRACT["run_seconds"], "trace": args.trace,
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, {platform.system()}",
        "python": platform.python_version(), "workloads": {},
    }
    worst = 0.0
    for workload in args.workloads:
        results = [run(workload, seed, args.trace) for seed in args.seeds]
        print(f"{workload}: {len(results)} runs")
        record["workloads"][workload], workload_worst = summarise(results, bounds)
        worst = max(worst, workload_worst)
    if bounds:
        print(f"largest spread as a share of its bound: {worst:.2f}")
    if args.record:
        baseline = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
        baseline[args.record] = record
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
