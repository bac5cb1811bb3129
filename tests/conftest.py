from fractions import Fraction as F

import pytest

from noarb.lattice import SampleSpace
from noarb.market import Asset, Filtration, MarketModel


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
