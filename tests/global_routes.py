"""Whole-market reference routes for NA, EMMs and superreplication, and the
per-outcome reference for NA₁.

Each question is one dense LP over every elementary gain of the market at
once, the way ``noarb.market`` decided them before it went node by node.
On a one-period market both build the same LP row for row.
``elementary_gains`` is the reference layout of those gains, one n-long
random variable per (t, asset, cell).  ``check_na1`` prices every outcome
indicator through the library's own ``superreplication_price``, the way
``noarb.market`` decided NA₁ before it read it off one-step child-indicator
prices.  ``budget_ceiling`` is the unit budget set's LP with a variable per
outcome, the form ``noarb.market`` posed NUPBR and the budget bound in
before it solved over the strategy coefficients alone.  ``primal_gauge``
and ``primal_member`` are the Minkowski gauge and the semi-solid membership
in the primal form, one row per outcome, that ``noarb.cones`` posed them in
before it solved their duals.  The tests run these against the library's
routes: they must agree on every verdict and price.
Witnesses are checked here by direct substitution, as in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from noarb import lp, market
from noarb.concepts import ConceptVerdicts
from noarb.errors import InternalInconsistency
from noarb.lattice import Measure, RandomVariable
from noarb.market import (
    EmmResult,
    NaResult,
    Strategy,
    Superreplication,
    check_nupbr,
    payoff_cone,
    terminal_gain,
)
from noarb.separation import strict_separator

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ElementaryGain:
    t: int
    asset: int
    cell: int
    vector: RandomVariable


def elementary_gains(model) -> list[ElementaryGain]:
    """One gain per (period, asset, information cell): hold one unit of one
    asset over one period on one cell.  These span the payoff cone."""
    space = model.space
    gains = []
    for t in range(1, model.horizon + 1):
        for a, asset in enumerate(model.assets):
            diff = asset.path[t] - asset.path[t - 1]
            for ci, cell in enumerate(model.filtration.partitions[t - 1]):
                values = [_ZERO] * len(space)
                for i in cell:
                    values[i] = diff.values[i]
                gains.append(ElementaryGain(t, a, ci, RandomVariable(space, values)))
    return gains


def _nonzero_gains(model):
    return [g for g in elementary_gains(model) if not g.vector.is_zero]


def _strategy_from_coefficients(gains, coefficients) -> Strategy:
    return Strategy({(g.t, g.asset, g.cell): coef for g, coef in zip(gains, coefficients)})


def _verified_arbitrage(model, gains, coefficients) -> Strategy:
    strategy = _strategy_from_coefficients(gains, coefficients)
    payoff = terminal_gain(model, strategy)
    if not payoff.is_nonneg or payoff.is_zero:
        raise InternalInconsistency("arbitrage witness failed re-verification",
                                    model=model, strategy=strategy, payoff=payoff)
    return strategy


def is_martingale_measure(model, measure) -> bool:
    """One expectation per elementary gain: the per-gain reference check."""
    return all(measure.expectation(g.vector) == 0 for g in elementary_gains(model))


def check_na(model) -> NaResult:
    gains = _nonzero_gains(model)
    if not gains:
        return NaResult()
    n = len(model.space)
    E = len(gains)
    columns = [g.vector.values for g in gains]
    rows, rels, rhs = [], [], []
    for i in range(n):
        row = [col[i] for col in columns]
        rows.append(row)
        rels.append(">=")
        rhs.append(_ZERO)
        rows.append(row)
        rels.append("<=")
        rhs.append(_ONE)
    objective = [sum(col, _ZERO) for col in columns]
    problem = lp.LpProblem(objective, rows, rels, rhs, free=range(E))
    outcome = lp.solve(problem)
    if outcome.status != lp.OPTIMAL:
        raise InternalInconsistency("arbitrage LP must be bounded and feasible",
                                    model=model, outcome=outcome)
    if outcome.objective_value == 0:
        return NaResult()
    return NaResult(_verified_arbitrage(model, gains, outcome.primal))


def find_emm(model) -> EmmResult:
    n = len(model.space)
    gains = _nonzero_gains(model)
    # variables: q_1..q_n, then the min-weight level m
    rows = [[_ONE] * n + [_ZERO]]
    rels = ["=="]
    rhs = [_ONE]
    for g in gains:
        rows.append(list(g.vector.values) + [_ZERO])
        rels.append("==")
        rhs.append(_ZERO)
    for i in range(n):
        row = [_ZERO] * (n + 1)
        row[i] = _ONE
        row[n] = Fraction(-1)
        rows.append(row)
        rels.append(">=")
        rhs.append(_ZERO)
    objective = [_ZERO] * n + [_ONE]
    outcome = lp.solve(lp.LpProblem(objective, rows, rels, rhs))
    if outcome.status == lp.OPTIMAL and outcome.objective_value > 0:
        measure = Measure(model.space, outcome.primal[:n])
        if not measure.is_equivalent or not is_martingale_measure(model, measure):
            raise InternalInconsistency("martingale measure failed re-verification",
                                        model=model, measure=measure)
        return EmmResult(measure=measure)
    multipliers = outcome.dual[1:1 + len(gains)]
    return EmmResult(arbitrage=_verified_arbitrage(model, gains, multipliers))


def superreplication_price(model, payoff) -> Superreplication:
    gains = _nonzero_gains(model)
    n = len(model.space)
    E = len(gains)
    rows, rhs = [], []
    for i in range(n):
        rows.append([_ONE] + [g.vector.values[i] for g in gains])
        rhs.append(payoff.values[i])
    problem = lp.LpProblem([_ONE] + [_ZERO] * E, rows, [">="] * n, rhs,
                           free=range(E + 1), sense="min")
    outcome = lp.solve(problem)
    if outcome.status == lp.UNBOUNDED:
        return Superreplication(price=-math.inf)
    if outcome.status != lp.OPTIMAL:
        raise InternalInconsistency("superreplication LP cannot be infeasible",
                                    model=model, payoff=payoff)
    alpha = outcome.objective_value
    hedge = _strategy_from_coefficients(gains, outcome.primal[1:])
    value = terminal_gain(model, hedge)
    if not all(alpha + v >= p for v, p in zip(value.values, payoff.values)):
        raise InternalInconsistency("superreplication hedge failed re-verification",
                                    model=model, payoff=payoff, hedge=hedge)
    return Superreplication(price=alpha, hedge=hedge)


def check_na1(model) -> bool:
    """No arbitrage of the first kind: every outcome indicator has a strictly
    positive superreplication price (enough by monotonicity + homogeneity of
    the price as a gauge)."""
    for e in model.space.indicators():
        if not market.superreplication_price(model, e).price > 0:
            return False
    return True


def budget_ceiling(model, weights):
    """sup Σ_i weights_i·x_i over the unit budget set, by the LP over
    x_1..x_n ≥ 0 and free strategy coefficients ξ with x_i − gain(ξ)_i ≤ 1:
    the optimum, or +inf when the LP is unbounded."""
    gains = _nonzero_gains(model)
    n = len(model.space)
    E = len(gains)
    rows = []
    for i in range(n):
        row = [_ZERO] * n + [-g.vector.values[i] for g in gains]
        row[i] = _ONE
        rows.append(row)
    problem = lp.LpProblem(list(weights) + [_ZERO] * E, rows, ["<="] * n, [_ONE] * n,
                           free=range(n, n + E))
    outcome = lp.solve(problem)
    if outcome.status == lp.UNBOUNDED:
        return math.inf
    if outcome.status != lp.OPTIMAL:
        raise InternalInconsistency("budget LP cannot be infeasible", model=model)
    return outcome.objective_value


def full_verdict(model) -> ConceptVerdicts:
    """``concepts.full_verdict`` on the whole-market routes, in its LP order:
    NA, indicator prices up to the first non-positive one, NUPBR, the EMM,
    then the strict separator."""
    na = check_na(model)
    na1 = all(superreplication_price(model, e).price > 0 for e in model.space.indicators())
    return ConceptVerdicts(
        na=na.holds,
        na1=na1,
        nupbr=check_nupbr(model),
        emm_exists=find_emm(model).measure is not None,
        separator_exists=strict_separator(payoff_cone(model)).measure is not None,
        arbitrage=na.arbitrage,
    )


def primal_gauge(bset, x):
    """The gauge of ``bset`` at x in its primal form, min Σ λ_g subject to
    Σ λ_g·g ≥ x, λ ≥ 0, posed on rationals with one ``>=`` row per outcome
    (phase one starts on their artificials): +inf when x is not ≥ 0 or the
    LP is infeasible.  ``cones.minkowski`` solves its LP dual instead."""
    if not x.is_nonneg:
        return math.inf
    gens, n = bset.generators, len(bset.space)
    rows = [[g.values[i] for g in gens] for i in range(n)]
    outcome = lp.solve(lp.LpProblem([1] * len(gens), rows, [">="] * n, list(x.values),
                                    sense="min"))
    assert outcome.status != lp.UNBOUNDED  # Σ λ ≥ 0
    return outcome.objective_value if outcome.status == lp.OPTIMAL else math.inf


def primal_member(bset, x, scale):
    """x ∈ scale·B in its primal form: x ≥ 0 and the feasibility of
    Σ λ_g·g ≥ x, Σ λ_g ≤ scale over λ ≥ 0, posed on rationals.
    ``cones.semisolid_member`` solves a homogeneous dual LP instead."""
    if not x.is_nonneg:
        return False
    gens, n = bset.generators, len(bset.space)
    rows = [[g.values[i] for g in gens] for i in range(n)] + [[Fraction(1)] * len(gens)]
    return lp.feasible(lp.LpProblem([0] * len(gens), rows, [">="] * n + ["<="],
                                    [*x.values, scale]))
