import itertools
import math
from fractions import Fraction as F

import pytest

from noarb import lp
from noarb.lattice import SampleSpace
from noarb.market import Asset, Filtration, MarketModel

#: Every market file in ``tests/data``, in name order, each with whether it
#: has an EMM.  Tests that read every market file read these, so a new file
#: changes no test until it is listed here.
MARKET_FILES = {
    "binomial.json": True,
    "crr3.json": True,
    "dominance.json": False,
    "ray_hedge.json": False,
    "trinomial.json": True,
    "two_period.json": True,
    "two_period_arbitrage.json": False,
}


def one_period_model(terminal_prices, probs=None, s0=1, name="S"):
    n = len(terminal_prices)
    if probs is None:
        probs = [F(1, n)] * n
    space = SampleSpace([f"w{k}" for k in range(1, n + 1)], probs)
    filtration = Filtration.single_period(space)
    path = (space.constant(s0), space.variable(terminal_prices))
    return MarketModel(filtration, [Asset(name, path)])


def crr_tree(T, s0=F(1)):
    """CRR tree, u = 2, d = 1/2: bit t of outcome k (from the top) is a down move."""
    n = 2 ** T
    space = SampleSpace([f"w{k}" for k in range(n)], [F(1, n)] * n)
    partitions = [[tuple(range(c * 2 ** (T - t), (c + 1) * 2 ** (T - t)))
                   for c in range(2 ** t)] for t in range(T + 1)]
    ups = [[t - bin(k >> (T - t)).count("1") for k in range(n)] for t in range(T + 1)]
    path = tuple(space.variable([s0 * F(2) ** (2 * ups[t][k] - t) for k in range(n)])
                 for t in range(T + 1))
    return MarketModel(Filtration(space, partitions), [Asset("S", path)]), ups[T]


def additive_tree(T):
    """Binary tree laid out like ``crr_tree`` on which no two nodes share a
    one-period market: S starts at T, and the node with breadth-first index
    i moves it up by i + 1 or down by 1."""
    n = 2 ** T
    space = SampleSpace([f"w{k}" for k in range(n)], [F(1, n)] * n)
    partitions = [[tuple(range(c * 2 ** (T - t), (c + 1) * 2 ** (T - t)))
                   for c in range(2 ** t)] for t in range(T + 1)]
    prices = [[F(T)] * n]
    for t in range(1, T + 1):
        moves = []
        for k in range(n):
            cell = k >> (T - t)  # the child cell at t; bit 0 set is a down move
            node = 2 ** (t - 1) - 1 + (cell >> 1)
            moves.append(-1 if cell & 1 else node + 1)
        prices.append([s + m for s, m in zip(prices[-1], moves)])
    path = tuple(space.variable(p) for p in prices)
    return MarketModel(Filtration(space, partitions), [Asset("S", path)])


def trinomial_tree(T):
    """Recombining trinomial tree, u = 2, m = 1, d = 1/2 on S0 = 1: the
    nodes where S is back at 1 repeat the root's one-period market."""
    factors = {"u": F(2), "m": F(1), "d": F(1, 2)}
    words = ["".join(w) for w in itertools.product("umd", repeat=T)]
    space = SampleSpace(words, [F(1, len(words))] * len(words))
    partitions = [[[w for w in words if w[:t] == prefix]
                   for prefix in sorted({w[:t] for w in words})] for t in range(T + 1)]
    path = tuple(space.variable([math.prod([factors[c] for c in w[:t]], start=F(1))
                                 for w in words]) for t in range(T + 1))
    return MarketModel(Filtration(space, partitions), [Asset("S", path)])


@pytest.fixture
def lp_calls(monkeypatch):
    """The problem of every ``lp.solve`` call the test makes, in call order."""
    solve, calls = lp.solve, []

    def recorded(problem):
        calls.append(problem)
        return solve(problem)

    monkeypatch.setattr(lp, "solve", recorded)
    return calls


@pytest.fixture
def binomial():
    """u=2, d=1/2 on S0=1: arbitrage-free, EMM q = (1/3, 2/3)."""
    return one_period_model([2, F(1, 2)], probs=[F(1, 2), F(1, 2)])


@pytest.fixture
def trinomial():
    """u=2, m=1, d=1/2 on S0=1: arbitrage-free and incomplete."""
    return one_period_model([2, 1, F(1, 2)], probs=[F(1, 3), F(1, 3), F(1, 3)])


@pytest.fixture
def dominance():
    """u=2, d=3/2 on S0=1: both branches dominate, buy-and-hold arbitrage."""
    return one_period_model([2, F(3, 2)], probs=[F(1, 2), F(1, 2)])


@pytest.fixture
def constant_market():
    return one_period_model([1, 1], probs=[F(1, 2), F(1, 2)])


@pytest.fixture
def two_period():
    """Four outcomes, binary splits, one asset recombining around 1."""
    space = SampleSpace(["uu", "ud", "du", "dd"], [F(1, 4)] * 4)
    filtration = Filtration(space, [
        [["uu", "ud", "du", "dd"]],
        [["uu", "ud"], ["du", "dd"]],
        [["uu"], ["ud"], ["du"], ["dd"]],
    ])
    path = (
        space.constant(1),
        space.variable([2, 2, F(1, 2), F(1, 2)]),
        space.variable([4, 1, 1, F(1, 4)]),
    )
    return MarketModel(filtration, [Asset("S", path)])
