"""
Detecting arbitrage and certifying its absence
==============================================

Two markets: one where every branch beats the initial price (free money),
and a two-period recombining tree that is arbitrage-free.  The deciders
return witnesses in both directions: an explicit strategy when arbitrage
exists, a strictly positive martingale measure when it does not.
"""

from fractions import Fraction as F

from noarb import (
    Asset,
    Filtration,
    MarketModel,
    SampleSpace,
    check_na,
    find_emm,
    full_verdict,
    terminal_gain,
)

# --- a dominated market: 1 -> {2, 3/2}, both outcomes above the cost ---------
space = SampleSpace(["up", "down"], [F(1, 2), F(1, 2)])
bad = MarketModel(
    Filtration.single_period(space),
    [Asset("S", (space.constant(1), space.variable([2, F(3, 2)])))],
)

na = check_na(bad)
print("dominated market satisfies NA:", na.holds)
payoff = terminal_gain(bad, na.arbitrage)
print("arbitrage holdings:", [str(h) for _, h in na.arbitrage.holdings])
print("its payoff:", {o: str(v) for o, v in zip(space.outcomes, payoff.values)}, "(free money)")
print("EMM search:", find_emm(bad).measure)

# --- a two-period tree: up/down twice, no arbitrage ---------------------------
space4 = SampleSpace(["uu", "ud", "du", "dd"], [F(1, 4)] * 4)
tree = Filtration(space4, [
    [["uu", "ud", "du", "dd"]],
    [["uu", "ud"], ["du", "dd"]],
    [["uu"], ["ud"], ["du"], ["dd"]],
])
prices = (
    space4.constant(1),
    space4.variable([2, 2, F(1, 2), F(1, 2)]),
    space4.variable([4, 1, 1, F(1, 4)]),
)
good = MarketModel(tree, [Asset("S", prices)])

# six independent decision routes, asserted to agree
verdicts = full_verdict(good)
print("\ntwo-period tree verdicts:", verdicts.as_dict())
q = find_emm(good).measure
print("an equivalent martingale measure:", {o: str(v) for o, v in zip(space4.outcomes, q.weights)})
