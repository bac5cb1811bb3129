"""
Separating functionals and martingale measures
==============================================

A market is arbitrage-free exactly when some strictly positive linear
functional is nonpositive on every achievable zero-cost payoff.  On a
finite outcome space such a functional is just a weight vector, paired
with a payoff by a dot product, and normalizing it yields an equivalent
martingale measure.  We build one from scratch: separate each outcome
direction, normalize, average.
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
    is_martingale_measure,
    payoff_cone,
    separate_at,
    strict_separator,
)

space = SampleSpace(["a", "b"], [F(1, 2), F(1, 2)])

# a cone of achievable payoffs: multiples of (1, -1), minus anything nonnegative
g = space.variable([1, -1])
cone = PolyhedralCone(space, [g])

# separate the direction (1, 1): positive weights, nonpositive on the cone
f = separate_at(cone, space.variable([1, 1]))
print("separator at (1,1):", tuple(map(str, f.values)))
print("  action on the generator:", sum(a * b for a, b in zip(f.values, g.values)), "<= 0")

# separation fails exactly on cone members; (1, 0) is outside, so it works
print("is (1,0) in the cone:", cone_member(cone, space.variable([1, 0])))
print("separator at (1,0):", tuple(map(str, separate_at(cone, space.variable([1, 0])).values)))

# one separator per indicator, each scaled to unit mass, averaged: strictly
# positive everywhere, so it is an equivalent probability measure
q = strict_separator(cone).measure
print("strict separator:", tuple(map(str, q.weights)))
print("as a measure:", tuple(map(str, q.weights)), "with scale", sum(q.weights))  # mass 1

# the same construction on a market cone reproduces the martingale measure route
market = MarketModel(
    Filtration.single_period(space),
    [Asset("S", (space.constant(1), space.variable([2, F(1, 2)])))],
)
q_sep = strict_separator(payoff_cone(market)).measure
print("\nmeasure from separation:", tuple(map(str, q_sep.weights)))
print("is a martingale measure:", is_martingale_measure(market, q_sep))
print("measure from the direct route:", tuple(map(str, find_emm(market).measure.weights)))
