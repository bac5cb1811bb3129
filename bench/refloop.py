"""The drift reference: fixed pure-``Fraction`` work that never imports noarb.

The host this benchmark was written on changes speed by up to 2x within
seconds, in CPU time as well as wall time.  A run therefore takes a
reference sample between every two operations and divides each operation's
time by the median of the samples around it.  No change to the library can
move the chunk, so a ratio against it moves only when the library's own
work does.

One chunk is a Gauss-Jordan elimination of a fixed 6 x 7 rational matrix,
the same kind of exact arithmetic as a simplex pivot; it takes about 1 ms.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: Seconds one chunk stands for when a ``*_ref`` figure is quoted in seconds
#: (``setup_s``): a round figure for the chunk's time on the host the baseline
#: was measured on, where it ranged from 0.7 to 1.35 ms as the host drifted.
#: A constant, so the conversion itself never drifts; the figure is seconds at
#: that reference speed, not wall time.
NOMINAL_S = 0.001

_MATRIX = tuple(
    tuple(Fraction((7 * i + 3 * j) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(7))
    for i in range(6))


def chunk() -> Fraction:
    """One unit of reference work; returns a value so nothing is skipped."""
    rows = [list(r) for r in _MATRIX]
    n = len(rows)
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        inv = 1 / rows[k][k]
        rows[k] = [v * inv for v in rows[k]]
        for r in range(n):
            f = rows[r][k]
            if r != k and f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
    return rows[-1][-1]


#: Share of the preceding item's time spent on the reference sample after
#: it, so long operations get as precise a reference as short ones.
SHARE = 0.05


def sample(after_ns: int = 0, share: float = SHARE) -> float:
    """Median chunk duration in ns over chunks run for ``share * after_ns``
    nanoseconds, and at least one chunk."""
    budget = share * after_ns
    times, spent = [], 0
    while not times or spent < budget:
        start = time.perf_counter_ns()
        chunk()
        times.append(time.perf_counter_ns() - start)
        spent += times[-1]
    return statistics.median(times)


def in_refs(durations: list[int], refs: list[float]) -> list[float]:
    """Each duration divided by its local reference.

    ``refs`` has one more entry than ``durations``: item ``i`` ran between
    samples ``refs[i]`` and ``refs[i + 1]``.  Its local reference is the
    median of the two samples before and the two after it, so a stall inside
    one sample does not skew the item.
    """
    if len(refs) != len(durations) + 1:
        raise ValueError("need one reference sample around every item")
    return [d / statistics.median(refs[max(0, i - 1):i + 3])
            for i, d in enumerate(durations)]
