"""
Pricing in a one-period binomial market, exactly
================================================

A single risky asset starts at 1 and moves to 2 or 1/2.  We compute the
equivalent martingale measure and the superreplication price of a call
struck at 1, all in exact fractions -- no floats anywhere.
"""

from fractions import Fraction as F

from noarb import (
    Asset,
    Filtration,
    MarketModel,
    SampleSpace,
    find_emm,
    superreplication_price,
    terminal_gain,
)

# two equally likely outcomes: the asset doubles or halves
space = SampleSpace(["up", "down"], [F(1, 2), F(1, 2)])
filtration = Filtration.single_period(space)
stock = Asset("S", (space.constant(1), space.variable([2, F(1, 2)])))
market = MarketModel(filtration, [stock])

# the martingale measure solves 2q + (1/2)(1-q) = 1 exactly: q = 1/3
result = find_emm(market)
q = result.measure
def show(values):
    return {o: str(v) for o, v in zip(space.outcomes, values)}

print("martingale measure:", show(q.weights))
print("density dQ/dP:     ", show(q.density()))

# price the call (S_T - 1)^+ = (1, 0); replication gives 1/3
call = space.variable([1, 0])
priced = superreplication_price(market, call)
print("call price:        ", priced.price)
print("hedge holdings:    ", dict(priced.hedge.holdings)[1, 0, 0], "units of S")

# the hedge replicates: initial wealth + trading gain dominates the payoff
gain = terminal_gain(market, priced.hedge)
for outcome, g, c in zip(space.outcomes, gain.values, call.values):
    print(f"  {outcome}: {priced.price} + {g} >= {c}")

# pricing by expectation under q agrees with the replication price
assert q.expectation(call) == priced.price == F(1, 3)
print("E_q[call] equals the superreplication price:", q.expectation(call))
