"""Reproduce the ROADMAP baseline counts on the first 1000 seed-0 markets.

    python3 bench/check_counts.py

Traces the ``corpus`` operation, ``full_verdict``, on the first 1000
markets of the ``lab.random_market(Random(0))`` stream, in stream order, with
the traced run's own loop, and compares the counts with the ones recorded
for them.  Exits 1 on any difference or wrong answer.  Takes about a minute.
"""

from __future__ import annotations

import random
import sys

import run
from workloads import Corpus

MARKETS = 1000
EXPECTED = {
    # the ROADMAP baseline
    "lp.solve.calls": 7237,
    "market.check_na.calls": 1859,
    "separation.separate_at.calls": 1689,
    "market.find_emm.calls": 1000,
    # recorded when the benchmark was added
    "lp.status.optimal": 4674,
    "lp.status.unbounded": 1711,
    "lp.status.infeasible": 852,
}


def main() -> int:
    if not run.use_source_tree():
        return 2
    workload = Corpus()
    run.set_up(workload, 0, None)
    rng = random.Random(0)  # the plain stream, not the workload's stratified order
    workload.markets = [workload.nb.lab.random_market(rng) for _ in range(MARKETS)]
    failures, metrics, _ = run.trace_loop(workload, MARKETS)
    ok = not failures
    for name, want in EXPECTED.items():
        got = metrics[name][0]
        ok &= got == want
        print(f"{name:32s} {got:6d}  expected {want:6d}  {'ok' if got == want else 'DIFFERS'}")
    for name in ("lp.solve.repeat_ratio", "traffic.arbitrage_free_share"):
        print(f"{name:32s} {metrics[name][0]:.6g}")
    print(f"wrong answers: {len(failures)}")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
