"""Randomized verification lab: seeded instance generators, an executable
suite of structural lemmas about semi-solid sets and budget sets, and the
truncated scaled-unit-vector family whose gauge stays positive while its
norm grows without bound.

Everything here asserts exact equalities and inequalities over rationals;
there are no tolerances anywhere.  All randomness is drawn from a
``random.Random`` seeded by the caller, so every run is reproducible.

Instance distributions (fixed so that reports are comparable across runs):

* semi-solid sets: 2–5 outcomes, 0–4 generators, entries p/q with
  0 ≤ p ≤ 8 and 1 ≤ q ≤ 4;
* markets: 2–8 outcomes, 1–3 periods, 1–2 assets, an interval filtration
  drawn by assigning each split point a birth period, prices p/q per cell
  with 0 ≤ p ≤ 20 and 1 ≤ q ≤ 20 (increments may then be negative), outcome
  weights 1..20 before normalization;
* sampled points: entries p/q with 0 ≤ p ≤ 8, 1 ≤ q ≤ 4.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable
from .cones import (SemiSolidSet, minkowski, semisolid_member, sup_norm, sup_squared_norm,
                    zero_set_trivial)
from .errors import InternalInconsistency, StructureError
from .lattice import RandomVariable, SampleSpace
from .market import Asset, Filtration, MarketModel, in_budget_set
from .rationals import dot, format_rational

_ZERO = Fraction(0)


# --- truncated counterexample family ---------------------------------------

def build_counterexample(truncation: int) -> SemiSolidSet:
    """The semi-solid hull of {k·e_k : k = 1..N} on N uniform outcomes.

    The finite truncation of the family whose untruncated version is
    unbounded (generator norms grow like k) yet has trivial scaling
    intersection (every indicator keeps a positive gauge 1/k).
    """
    if truncation < 1:
        raise StructureError("truncation must be a positive integer")
    space = SampleSpace.uniform(truncation)
    gens = []
    for k in range(truncation):
        values = [_ZERO] * truncation
        values[k] = Fraction(k + 1)
        gens.append(RandomVariable(space, values))
    return SemiSolidSet(space, gens)


@dataclass(frozen=True)
class CounterexampleReport:
    truncation: int
    sup_squared_l2: Fraction
    sup_norm_linf: Fraction
    min_indicator_gauge: Fraction

    @property
    def zero_set_trivial(self) -> bool:
        """``cones.zero_set_trivial`` of the set, read off its finite indicator gauges."""
        return self.min_indicator_gauge > 0

    def as_dict(self) -> dict:
        return {
            "truncation": self.truncation,
            "sup_squared_l2": format_rational(self.sup_squared_l2),
            "sup_norm_linf": format_rational(self.sup_norm_linf),
            "min_indicator_gauge": format_rational(self.min_indicator_gauge),
            "zero_set_trivial": self.zero_set_trivial,
        }


def counterexample_report(truncation: int) -> CounterexampleReport:
    """Growth-versus-gauge dichotomy at finite truncation.

    The sup of the squared Euclidean norm over the set is attained at a
    generator vertex (N² for truncation N), while the smallest indicator
    gauge is 1/N, positive at every N even though the norm sup diverges.
    Gauges are computed by the LP route, not from the closed form, one LP
    per indicator; the triviality verdict is read off the same gauges.
    """
    bset = build_counterexample(truncation)
    gauges = [minkowski(bset, e) for e in bset.space.indicators()]
    if any(g == math.inf for g in gauges):
        raise InternalInconsistency("counterexample gauges must be finite", bset=bset)
    return CounterexampleReport(
        truncation=truncation,
        sup_squared_l2=sup_squared_norm(bset),
        sup_norm_linf=sup_norm(bset),
        min_indicator_gauge=min(gauges),
    )


# --- seeded instance generators ---------------------------------------------

def random_semisolid(rng: random.Random) -> SemiSolidSet:
    space = SampleSpace.uniform(rng.randint(2, 5))
    return SemiSolidSet(space, [random_point(rng, space) for _ in range(rng.randint(0, 4))])


def random_point(rng: random.Random, space: SampleSpace) -> RandomVariable:
    return RandomVariable(space, [Fraction(rng.randint(0, 8), rng.randint(1, 4))
                                  for _ in space.outcomes])


def random_member(rng: random.Random, bset: SemiSolidSet) -> RandomVariable:
    """A guaranteed member: sub-convex combination, then shrink downward."""
    space = bset.space
    if bset.generators:
        raw = [rng.randint(0, 5) for _ in bset.generators]
        total = sum(raw) or 1
        budget = Fraction(rng.randint(0, 4), 4)
        lam = [Fraction(w, total) * budget for w in raw]
        top = [dot(lam, column) for column in zip(*[g.values for g in bset.generators])]
    else:
        top = space.zero().values
    shrink = [Fraction(rng.randint(0, 4), 4) for _ in space.outcomes]
    return RandomVariable(space, [s * v for s, v in zip(shrink, top)])


def random_market(rng: random.Random, max_outcomes: int = 8,
                  max_periods: int = 3) -> MarketModel:
    n = rng.randint(2, max_outcomes)
    T = rng.randint(1, max_periods)
    space = SampleSpace(
        [f"w{k}" for k in range(1, n + 1)],
        _normalized_weights(rng, n))
    # interval filtration over the outcome order: each split point is born
    # at a uniform period, so partitions refine by construction
    birth = {b: rng.randint(1, T) for b in range(1, n)}
    partitions = []
    for t in range(T + 1):
        cuts = sorted(b for b, when in birth.items() if when <= t)
        cells, start = [], 0
        for cut in cuts + [n]:
            cells.append(tuple(range(start, cut)))
            start = cut
        partitions.append(cells)
    filtration = Filtration(space, partitions)
    assets = []
    for a in range(rng.randint(1, 2)):
        path = []
        for t in range(T + 1):
            values = [_ZERO] * n
            for cell in partitions[t]:
                price = Fraction(rng.randint(0, 20), rng.randint(1, 20))
                for i in cell:
                    values[i] = price
            path.append(RandomVariable(space, values))
        assets.append(Asset(f"A{a + 1}", tuple(path)))
    return MarketModel(filtration, assets)


def _normalized_weights(rng, n):
    raw = [rng.randint(1, 20) for _ in range(n)]
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


# --- the lemma suite ----------------------------------------------------------

@dataclass
class Violation:
    lemma: str
    instance: int
    detail: str

    def as_dict(self) -> dict:
        return {"lemma": self.lemma, "instance": self.instance, "detail": self.detail}


@dataclass
class LemmaSuiteReport:
    seed: int
    instances: int
    checks: dict[str, int] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "instances": self.instances,
            "checks": dict(sorted(self.checks.items())),
            "violations": [v.as_dict() for v in self.violations],
            "passed": self.passed,
        }

    def summary(self) -> str:
        lines = [f"lemma suite: seed={self.seed} instances={self.instances}"]
        for name, count in sorted(self.checks.items()):
            lines.append(f"  {name}: {count} checks")
        if self.passed:
            lines.append("  zero violations")
        else:
            first = self.violations[0]
            lines.append(f"  {len(self.violations)} violation(s); first: "
                         f"[{first.lemma} @ instance {first.instance}] {first.detail}")
        return "\n".join(lines)


class _Harness:
    def __init__(self, report: LemmaSuiteReport):
        self.report = report
        self.instance = 0

    def check(self, lemma: str, condition: bool, detail: Callable[[], str]) -> None:
        """Count one check of ``lemma``; a failed one records ``detail()``,
        which is built only then."""
        self.report.checks[lemma] = self.report.checks.get(lemma, 0) + 1
        if not condition:
            self.report.violations.append(Violation(lemma, self.instance, detail()))


def verify_lemma_suite(seed: int, instances: int, self_test: bool = False) -> LemmaSuiteReport:
    """Check the structural lemmas on seeded random instances, exactly.

    Covered per instance: semi-solidity and convexity of generated sets,
    the scaling identity between budget levels, the five gauge laws (zero
    at zero, ≤ 1 inside, ≥ 1 outside on V₊, positive homogeneity,
    monotonicity), the equivalence of membership below level α with gauge
    ≤ α, and triviality of the all-levels intersection.  With ``self_test``
    one membership verdict is deliberately negated so callers can confirm
    the harness reports a violation when one exists.
    """
    if instances < 1:
        raise StructureError("need at least one instance")
    rng = random.Random(seed)
    report = LemmaSuiteReport(seed=seed, instances=instances)
    h = _Harness(report)
    for k in range(instances):
        h.instance = k
        bset = random_semisolid(rng)
        _check_semisolid_laws(h, rng, bset, sabotage=self_test and k == 0)
        model = random_market(rng, max_outcomes=5, max_periods=2)
        _check_budget_scaling(h, rng, model)
    return report


def _check_semisolid_laws(h: _Harness, rng, bset: SemiSolidSet, sabotage: bool = False) -> None:
    space = bset.space
    zero = space.zero()
    h.check("gauge-zero", minkowski(bset, zero) == 0, lambda: "gauge(0) != 0")

    x = random_member(rng, bset)
    gauge_x = minkowski(bset, x)
    h.check("gauge-inside", gauge_x <= 1, lambda: f"member {x} has gauge {gauge_x} > 1")

    y = random_point(rng, space)
    gauge_y = minkowski(bset, y)
    member_y = semisolid_member(bset, y, 1)
    if sabotage:
        member_y = not member_y
    if not member_y:
        h.check("gauge-outside", gauge_y >= 1,
                lambda: f"non-member {y} has gauge {gauge_y} < 1")
    else:
        h.check("gauge-inside", gauge_y <= 1, lambda: f"member {y} has gauge {gauge_y} > 1")

    alpha = Fraction(rng.randint(1, 9), 10)
    h.check("level-sets", semisolid_member(bset, y, alpha) == (gauge_y <= alpha),
            lambda: f"membership at level {alpha} disagrees with gauge {gauge_y} for {y}")

    factor = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    scaled = minkowski(bset, x.scale(factor))
    expected = math.inf if gauge_x == math.inf else factor * gauge_x
    h.check("gauge-homogeneous", scaled == expected,
            lambda: f"gauge({factor}·x) = {scaled}, expected {expected}")

    below = RandomVariable(space, [v * Fraction(rng.randint(0, 4), 4) for v in x.values])
    h.check("semi-solid", semisolid_member(bset, below, 1),
            lambda: f"downward point {below} of member {x} not a member")
    gauge_below = minkowski(bset, below)
    h.check("gauge-monotone", gauge_below <= gauge_x,
            lambda: f"gauge({below}) = {gauge_below} > gauge({x}) = {gauge_x}")

    other = random_member(rng, bset)
    mid = RandomVariable(space, [(a + b) / 2 for a, b in zip(x.values, other.values)])
    h.check("convexity", semisolid_member(bset, mid, 1),
            lambda: f"midpoint {mid} of members escaped the set")

    # finitely many generators make B bounded, so its scaled copies meet only in 0
    h.check("trivial-intersection", zero_set_trivial(bset),
            lambda: "scaled copies of a finitely generated set meet outside 0")
    if 0 < gauge_y < math.inf:
        h.check("trivial-intersection", not semisolid_member(bset, y, gauge_y / 2),
                lambda: f"{y} inside level {gauge_y}/2 below its gauge")
        h.check("level-sets", semisolid_member(bset, y, gauge_y),
                lambda: f"gauge of {y} is not attained")


def _check_budget_scaling(h: _Harness, rng, model: MarketModel) -> None:
    space = model.space
    x = random_point(rng, space)
    alpha = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    lhs = in_budget_set(model, x, alpha)
    rhs = in_budget_set(model, x.scale(1 / alpha), 1)
    h.check("budget-scaling", lhs == rhs,
            lambda: f"x in B_{alpha} is {lhs} but x/{alpha} in B_1 is {rhs} for {x}")
    if in_budget_set(model, x, 0):
        level = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        h.check("budget-zero-inclusion", in_budget_set(model, x, level),
                lambda: f"zero-wealth dominated {x} escaped B_{level}")
