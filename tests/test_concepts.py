import dataclasses
import math
import random
from fractions import Fraction as F

import pytest

from noarb import concepts, lab, lp
from noarb.concepts import ConceptVerdicts, full_verdict
from noarb.errors import InternalInconsistency
from noarb.lattice import Measure
from noarb.market import emm_budget, find_emm, in_budget_set, superreplication_price


def test_binomial_all_true(binomial):
    v = full_verdict(binomial)
    assert v.agree and v.na
    assert v.as_dict() == {k: True for k in v.as_dict()}


def test_dominance_all_false(dominance):
    v = full_verdict(dominance)
    assert v.agree and not v.na
    assert v.nfl_equiv is False


def test_constant_asset_all_true(constant_market):
    assert full_verdict(constant_market).na


def test_two_period_agreement(two_period):
    assert full_verdict(two_period).agree


def test_as_dict_lists_the_compared_fields_in_order(dominance):
    v = full_verdict(dominance)
    compared = [f.name for f in dataclasses.fields(ConceptVerdicts) if f.compare]
    assert compared == ["na", "na1", "nupbr", "emm_exists", "separator_exists"]
    assert list(v.as_dict()) == [
        "na", "na1", "nupbr", "nfl_equiv", "emm_exists", "separator_exists"]
    assert v.as_dict()["nfl_equiv"] is v.na
    assert v.arbitrage is not None and "arbitrage" not in v.as_dict()


def test_emm_budget_finite_on_an_arbitrage_free_market(binomial):
    q = find_emm(binomial).measure
    assert emm_budget(binomial, q) == 1
    assert emm_budget(binomial, Measure(binomial.space, [F(1, 2), F(1, 2)])) != math.inf


def test_emm_budget_infinite_under_arbitrage(dominance):
    q = Measure(dominance.space, [F(1, 2), F(1, 2)])
    assert emm_budget(dominance, q) == math.inf


def test_emm_budget_rejects_an_infeasible_budget_lp(binomial, monkeypatch):
    """ξ = 0 is feasible, so an infeasible budget LP is the solver's fault,
    not an unbounded budget: it raises, carrying the market."""
    q = find_emm(binomial).measure
    monkeypatch.setattr(lp, "solve", lambda problem: lp.LpOutcome(status=lp.INFEASIBLE))
    with pytest.raises(InternalInconsistency, match="cannot be infeasible") as caught:
        emm_budget(binomial, q)
    assert caught.value.data["model"] == binomial


def test_zero_gauge_set_equals_all_levels_intersection():
    # points of gauge zero are exactly the points inside every budget level
    rng = random.Random(17)
    for _ in range(25):
        model = lab.random_market(rng, max_outcomes=4, max_periods=2)
        x = lab.random_point(rng, model.space)
        price = superreplication_price(model, x).price
        in_all = all(in_budget_set(model, x, F(1, d)) for d in (1, 7, 101))
        gauge_zero = price <= 0 or price == -math.inf
        if x.is_zero:
            assert in_all
            continue
        if gauge_zero:
            assert in_all
        else:
            assert not in_budget_set(model, x, price / 2)
            assert in_budget_set(model, x, price)


def test_randomized_agreement_sample():
    rng = random.Random(99)
    for _ in range(60):
        model = lab.random_market(rng, max_outcomes=6, max_periods=2)
        assert full_verdict(model).agree


def test_disagreeing_routes_are_an_inconsistency(binomial, monkeypatch):
    monkeypatch.setattr(concepts, "check_nupbr", lambda model: False)
    with pytest.raises(InternalInconsistency, match="concept routes disagree") as caught:
        full_verdict(binomial)
    assert caught.value.data["model"] == binomial
