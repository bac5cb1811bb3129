import dataclasses
import random
from fractions import Fraction as F

import pytest

from noarb import lp, separation
from noarb.cones import PolyhedralCone, cone_member
from noarb.errors import ContractViolation, InternalInconsistency, StructureError
from noarb.lattice import SampleSpace
from noarb.market import find_emm, is_martingale_measure, payoff_cone
from noarb.separation import (
    Functional,
    functional_to_measure,
    separate_at,
    strict_separator,
    strict_separator_exists,
)

from conftest import crr_tree

TWO = SampleSpace(["a", "b"], [F(1, 2), F(1, 2)])
THREE = SampleSpace(["a", "b", "c"], [F(1, 3)] * 3)


def orthant_cone(space, generators=()):
    return PolyhedralCone(space, list(generators), includes_neg_orthant=True)


def test_separating_the_orthant_alone():
    f = separate_at(orthant_cone(TWO), TWO.indicator("a"))
    assert f is not None
    assert f(TWO.indicator("a")) == 1
    assert f.is_positive


def test_separate_with_generator_constraint():
    cone = orthant_cone(TWO, [TWO.variable([1, -1])])
    target = TWO.variable([1, 1])
    f = separate_at(cone, target)
    assert f is not None
    assert f(TWO.variable([1, -1])) <= 0
    assert f(target) == 1
    assert f.is_positive


def test_target_inside_cone_returns_none():
    cone = orthant_cone(TWO, [TWO.indicator("a")])
    assert separate_at(cone, TWO.indicator("a")) is None


def test_separate_contract_checks():
    with pytest.raises(StructureError):
        separate_at(PolyhedralCone(TWO, []), TWO.indicator("a"))
    with pytest.raises(StructureError):
        strict_separator_exists(PolyhedralCone(TWO, []))
    with pytest.raises(ContractViolation):
        separate_at(orthant_cone(TWO), TWO.zero())
    with pytest.raises(ContractViolation):
        separate_at(orthant_cone(TWO), TWO.variable([1, -1]))


def test_none_iff_cone_membership():
    rng = random.Random(23)
    for _ in range(30):
        gens = [THREE.variable([F(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in THREE.outcomes])
                for _ in range(rng.randint(0, 3))]
        cone = orthant_cone(THREE, gens)
        target = THREE.variable([F(rng.randint(0, 3)) for _ in THREE.outcomes])
        if not target.is_nonneg or target.is_zero:
            continue
        assert (separate_at(cone, target) is None) == cone_member(cone, target)


def test_strict_separator_pure_orthant():
    res = strict_separator(orthant_cone(THREE))
    assert res.functional is not None
    assert strict_separator_exists(orthant_cone(THREE))
    assert res.functional.is_strictly_positive
    assert res.functional.l1_norm() == 1


def test_strict_separator_with_generator():
    g = TWO.variable([1, -1])
    res = strict_separator(orthant_cone(TWO, [g]))
    f = res.functional
    assert f is not None and f.is_strictly_positive
    assert strict_separator_exists(orthant_cone(TWO, [g]))
    assert f(g) <= 0
    assert f.coefficients[0] <= f.coefficients[1]


def test_strict_separation_holds_only_its_functional_or_direction():
    res = strict_separator(orthant_cone(TWO, [TWO.variable([1, -1])]))
    assert [f.name for f in dataclasses.fields(res)] == ["functional", "violating"]
    assert not hasattr(res, "report") and res.violating is None


def test_strict_separator_violating_direction():
    cone = orthant_cone(TWO, [TWO.indicator("b")])
    res = strict_separator(cone)
    assert res.functional is None
    assert res.violating == TWO.indicator("b")
    assert not strict_separator_exists(cone)


def test_averaging_soundness_random():
    rng = random.Random(29)
    for _ in range(20):
        gens = [THREE.variable([F(rng.randint(-5, 5), rng.randint(1, 3))
                                for _ in THREE.outcomes])
                for _ in range(rng.randint(1, 4))]
        cone = orthant_cone(THREE, gens)
        res = strict_separator(cone)
        assert strict_separator_exists(cone) == (res.functional is not None)
        if res.functional is None:
            assert cone_member(cone, res.violating)
            continue
        assert not any(cone_member(cone, e) for e in THREE.indicators())
        f = res.functional
        assert all(f(g) <= 0 for g in gens)
        assert all(f(e) > 0 for e in THREE.indicators())


@pytest.mark.parametrize("T", [5, 6, 7])
def test_exhaustion_separates_a_crr_tree_once(T, monkeypatch):
    # the only martingale measure is strictly positive, so the first
    # separator is positive at every outcome
    model, _ = crr_tree(T)
    calls = []

    def counted(cone, target):
        calls.append(target)
        return separate_at(cone, target)

    monkeypatch.setattr(separation, "separate_at", counted)
    assert strict_separator_exists(payoff_cone(model, includes_neg_orthant=True))
    assert len(calls) == 1


def test_functional_to_measure_examples():
    uniform = Functional(TWO, [1, 1])
    q, c = functional_to_measure(uniform)
    assert q.weights == (F(1, 2), F(1, 2)) and c == 2
    skew = Functional(SampleSpace(["a", "b"], [F(1, 2), F(1, 2)]), [1, 2])
    q2, c2 = functional_to_measure(skew)
    assert q2.weights == (F(1, 3), F(2, 3)) and c2 == 3
    assert q2.density() == (F(2, 3), F(4, 3))
    with pytest.raises(ContractViolation):
        functional_to_measure(Functional(TWO, [1, 0]))


def test_identity_on_random_variables():
    rng = random.Random(31)
    f = Functional(THREE, [F(1, 2), F(2, 7), 3])
    q, c = functional_to_measure(f)
    for _ in range(10):
        x = THREE.variable([F(rng.randint(-9, 9), rng.randint(1, 4))
                            for _ in THREE.outcomes])
        assert f(x) == c * q.expectation(x)


def test_market_separator_yields_emm(binomial, trinomial, dominance):
    for model in (binomial, trinomial):
        res = strict_separator(payoff_cone(model, includes_neg_orthant=True))
        assert res.functional is not None
        q, _ = functional_to_measure(res.functional)
        assert is_martingale_measure(model, q)
        assert q.is_equivalent
        assert find_emm(model).measure is not None
    res = strict_separator(payoff_cone(dominance, includes_neg_orthant=True))
    assert res.functional is None
    assert find_emm(dominance).measure is None


OTHER = SampleSpace(["a", "b"], [F(1, 3), F(2, 3)])


@pytest.mark.parametrize("call, message", [
    (lambda: Functional(TWO, [1]), "one coefficient per outcome required"),
    (lambda: Functional(TWO, [1, 1])(OTHER.zero()), "argument on a different sample space"),
    (lambda: separate_at(orthant_cone(TWO), OTHER.indicator("a")),
     "target on a different sample space"),
], ids=["coefficient-count", "argument-space", "target-space"])
def test_input_validation_raises(call, message):
    with pytest.raises(StructureError, match=message):
        call()


@pytest.mark.parametrize("corrupt, message", [
    (lambda out: dataclasses.replace(out, status=lp.UNBOUNDED),
     "separation LP must have optimum 0 or 1"),
    (lambda out: dataclasses.replace(out, objective_value=F(1, 2)),
     "separation LP produced a value other than 0 or 1"),
    (lambda out: dataclasses.replace(out, primal=(out.primal[0] + 1, *out.primal[1:])),
     "separator failed re-verification"),
], ids=["status", "objective", "primal"])
def test_a_corrupted_separation_lp_is_an_inconsistency(corrupt, message, monkeypatch):
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: corrupt(solve(problem)))
    cone = orthant_cone(TWO, [TWO.variable([1, -1])])
    with pytest.raises(InternalInconsistency, match=message) as caught:
        separate_at(cone, TWO.indicator("a"))
    assert caught.value.data["cone"] == cone


@pytest.mark.parametrize("route", [strict_separator, strict_separator_exists])
def test_an_average_that_misses_an_outcome_is_an_inconsistency(route, monkeypatch):
    # every separator the LP route returns is checked on its own target, and
    # the average of checked separators is strictly positive, so only a
    # separate_at that answers another target's question reaches this check
    first = THREE.indicator("a")
    monkeypatch.setattr(separation, "separate_at",
                        lambda cone, target: separate_at(cone, first))
    with pytest.raises(InternalInconsistency, match="averaged separator failed re-verification"):
        route(orthant_cone(THREE))
