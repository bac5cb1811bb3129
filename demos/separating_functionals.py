"""
Separating functionals and martingale measures
==============================================

A market is arbitrage-free exactly when some strictly positive linear
functional is nonpositive on every achievable zero-cost payoff.  On a
finite outcome space such a functional is just a weight vector, and
normalizing it yields an equivalent martingale measure.  We build one from
scratch: separate each outcome direction, average, normalize.
"""

from fractions import Fraction as F

from noarb import (
    Asset,
    Filtration,
    MarketModel,
    PolyhedralCone,
    SampleSpace,
    cone_member,
    find_emm,
    functional_to_measure,
    is_martingale_measure,
    payoff_cone,
    separate_at,
    strict_separator,
)

space = SampleSpace(["a", "b"], [F(1, 2), F(1, 2)])

# a cone of achievable payoffs: multiples of (1, -1), minus anything nonnegative
cone = PolyhedralCone(space, [space.variable([1, -1])], includes_neg_orthant=True)

# separate the direction (1, 1): positive weights, nonpositive on the cone
f = separate_at(cone, space.variable([1, 1]))
print("separator at (1,1):", f.coefficients and tuple(map(str, f.coefficients)))
print("  action on the generator:", f(space.variable([1, -1])), "<= 0")

# separation fails exactly on cone members; (1, 0) is outside, so it works
print("is (1,0) in the cone:", cone_member(cone, space.variable([1, 0])))
print("separator at (1,0):", tuple(map(str, separate_at(cone, space.variable([1, 0])).coefficients)))

# one separator per indicator, averaged: strictly positive everywhere
strict = strict_separator(cone)
print("strict separator:", tuple(map(str, strict.functional.coefficients)))
q, scale = functional_to_measure(strict.functional)
print("as a measure:", tuple(map(str, q.weights)), "with scale", scale)

# the same construction on a market cone reproduces the martingale measure route
market = MarketModel(
    Filtration.single_period(space),
    [Asset("S", (space.constant(1), space.variable([2, F(1, 2)])))],
)
sep = strict_separator(payoff_cone(market, includes_neg_orthant=True))
q_sep, _ = functional_to_measure(sep.functional)
print("\nmeasure from separation:", tuple(map(str, q_sep.weights)))
print("is a martingale measure:", is_martingale_measure(market, q_sep))
print("measure from the direct route:", tuple(map(str, find_emm(market).measure.weights)))
