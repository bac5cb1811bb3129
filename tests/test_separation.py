import dataclasses
import random
from fractions import Fraction as F

import pytest

from noarb import lp, separation
from noarb.cones import PolyhedralCone, cone_member, capped, covers
from noarb.errors import InternalInconsistency, StructureError
from noarb.lattice import Measure, SampleSpace
from noarb.market import find_emm, is_martingale_measure, payoff_cone
from noarb.rationals import to_integers
from noarb.separation import separate_at, strict_separator, strict_separator_exists

from conftest import crr_tree

TWO = SampleSpace(["a", "b"], [F(1, 2), F(1, 2)])
THREE = SampleSpace(["a", "b", "c"], [F(1, 3)] * 3)


def dot(a, x):
    """Σ a_i·x_i summed as ``Fraction``s: the reference for the integer sums."""
    return sum([F(p) * F(q) for p, q in zip(a, x, strict=True)], F(0))


def orthant_cone(space, generators=()):
    """The generators' cone minus V₊, which every ``PolyhedralCone`` is."""
    return PolyhedralCone(space, list(generators))


def test_separating_the_orthant_alone():
    f = separate_at(orthant_cone(TWO), TWO.indicator("a"))
    assert f is not None
    assert dot(f.values, TWO.indicator("a").values) == 1
    assert f.is_nonneg


def test_separate_with_generator_constraint():
    cone = orthant_cone(TWO, [TWO.variable([1, -1])])
    target = TWO.variable([1, 1])
    f = separate_at(cone, target)
    assert f is not None
    assert dot(f.values, (1, -1)) <= 0
    assert dot(f.values, target.values) == 1
    assert f.is_nonneg


def test_target_inside_cone_returns_none():
    cone = orthant_cone(TWO, [TWO.indicator("a")])
    assert separate_at(cone, TWO.indicator("a")) is None


def test_separate_contract_checks():
    with pytest.raises(StructureError):
        separate_at(orthant_cone(TWO), TWO.zero())
    with pytest.raises(StructureError):
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
    assert res.measure is not None
    assert strict_separator_exists(orthant_cone(THREE))
    assert res.measure.is_equivalent
    assert res.measure.weights == (F(1, 3),) * 3


def test_strict_separator_with_generator():
    g = TWO.variable([1, -1])
    res = strict_separator(orthant_cone(TWO, [g]))
    q = res.measure
    assert q is not None and q.is_equivalent
    assert strict_separator_exists(orthant_cone(TWO, [g]))
    assert q.expectation(g) <= 0
    assert q.weights[0] <= q.weights[1]


def test_strict_separation_holds_only_its_measure_or_direction():
    res = strict_separator(orthant_cone(TWO, [TWO.variable([1, -1])]))
    assert [f.name for f in dataclasses.fields(res)] == ["measure", "violating"]
    assert isinstance(res.measure, Measure) and res.violating is None


def test_strict_separator_violating_direction():
    cone = orthant_cone(TWO, [TWO.indicator("b")])
    res = strict_separator(cone)
    assert res.measure is None
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
        assert strict_separator_exists(cone) == (res.measure is not None)
        if res.measure is None:
            assert cone_member(cone, res.violating)
            continue
        assert not any(cone_member(cone, e) for e in THREE.indicators())
        q = res.measure
        assert sum(q.weights) == 1
        assert all(q.expectation(g) <= 0 for g in gens)
        assert all(q.expectation(e) > 0 for e in THREE.indicators())


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
    assert strict_separator_exists(payoff_cone(model))
    assert len(calls) == 1


def test_strict_separator_measure_examples():
    # each indicator's separator, divided by its sum, averaged
    g = TWO.variable([1, -1])
    assert strict_separator(orthant_cone(TWO)).measure.weights == (F(1, 2), F(1, 2))
    q = strict_separator(orthant_cone(TWO, [g])).measure
    assert q.weights == (F(1, 4), F(3, 4)) and q.expectation(g) == F(-1, 2)
    skew = SampleSpace(["a", "b"], [F(1, 3), F(2, 3)])
    q2 = strict_separator(orthant_cone(skew, [skew.variable([1, -1])])).measure
    assert q2.weights == (F(1, 4), F(3, 4))
    assert q2.density() == (F(3, 4), F(9, 8))


def test_identity_on_random_variables():
    # a separator acts as its mass times the expectation under its normalization
    rng = random.Random(31)
    cone = orthant_cone(THREE, [THREE.variable([1, -2, 0]), THREE.variable([0, 1, -3])])
    f = separate_at(cone, THREE.indicator("a"))
    mass = sum(f.values)
    q = Measure(THREE, [v / mass for v in f.values])
    assert mass == F(5, 3)
    for _ in range(10):
        x = THREE.variable([F(rng.randint(-9, 9), rng.randint(1, 4))
                            for _ in THREE.outcomes])
        assert dot(f.values, x.values) == mass * q.expectation(x)


def test_market_separator_yields_emm(binomial, trinomial, dominance):
    for model in (binomial, trinomial):
        q = strict_separator(payoff_cone(model)).measure
        assert q is not None
        assert is_martingale_measure(model, q)
        assert q.is_equivalent
        assert find_emm(model).measure is not None
    res = strict_separator(payoff_cone(dominance))
    assert res.measure is None
    assert find_emm(dominance).measure is None


OTHER = SampleSpace(["a", "b"], [F(1, 3), F(2, 3)])


@pytest.mark.parametrize("call, message", [
    (lambda: TWO.variable([1]), "1 values for a space with 2 outcomes"),
    (lambda: strict_separator(orthant_cone(TWO)).measure.expectation(OTHER.zero()),
     "random variable on a different space"),
    (lambda: separate_at(orthant_cone(TWO), OTHER.indicator("a")),
     "target on a different sample space"),
], ids=["coefficient-count", "argument-space", "target-space"])
def test_input_validation_raises(call, message):
    with pytest.raises(StructureError, match=message):
        call()


SLOPE = [TWO.variable([1, -1])]  # indicator a is separated, by (1, 1)
INSIDE = [TWO.indicator("a")]  # indicator a lies in the cone: μ = 1 on its row


def _dual(corrupt):
    return lambda out: dataclasses.replace(out, dual=corrupt(out.dual))


@pytest.mark.parametrize("generators, corrupt, message", [
    (SLOPE, lambda out: dataclasses.replace(out, status=lp.UNBOUNDED),
     "separation LP must have optimum 0 or 1"),
    (SLOPE, lambda out: dataclasses.replace(out, objective_value=F(1, 2)),
     "separation LP produced a value other than 0 or 1"),
    (SLOPE, lambda out: dataclasses.replace(out, primal=(out.primal[0] + 1, *out.primal[1:])),
     "separator failed re-verification"),
    # still separating, but 2 at the target
    (SLOPE, lambda out: dataclasses.replace(out, primal=tuple(2 * v for v in out.primal)),
     "separator failed re-verification"),
    # at optimum 0 the generator rows' duals must show the target in the cone
    (INSIDE, _dual(lambda dual: (F(0),) * len(dual)),
     "dominating cone point failed re-verification"),
    (INSIDE, _dual(lambda dual: (-dual[0], *dual[1:])),
     "dominating cone point failed re-verification"),
    # -1·a - 2·(-a) = a dominates the target, but μ < 0 is no cone point
    (INSIDE + [-INSIDE[0]], _dual(lambda dual: (F(-1), F(-2), dual[-1])),
     "dominating cone point failed re-verification"),
], ids=["status", "objective", "primal", "doubled", "zero-duals", "negated-dual",
        "negative-duals-that-dominate"])
def test_a_corrupted_separation_lp_is_an_inconsistency(generators, corrupt, message,
                                                       monkeypatch):
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: corrupt(solve(problem)))
    cone = orthant_cone(TWO, generators)
    with pytest.raises(InternalInconsistency, match=message) as caught:
        separate_at(cone, TWO.indicator("a"))
    assert caught.value.data["cone"] == cone


# the span h = (1, -1) forces f(a) = f(b); the generator (-1, 0) and the
# span (1, 0) put indicator a inside the cone, reached by ν = 1 on the span
SPAN_SLOPE = PolyhedralCone(TWO, [], [TWO.variable([1, -1])])
SPAN_INSIDE = PolyhedralCone(TWO, [TWO.variable([-1, 0])], [TWO.variable([1, 0])])


def test_a_span_element_is_a_free_generator_pair():
    """Separators vanish on the span, and a target the span reaches with a
    negative multiplier lies in the cone."""
    f = separate_at(SPAN_SLOPE, TWO.indicator("a"))
    assert f.values == (F(1), F(1))
    minus = PolyhedralCone(TWO, [], [TWO.variable([-1, 0])])
    assert separate_at(minus, TWO.indicator("a")) is None
    assert separate_at(SPAN_INSIDE, TWO.indicator("a")) is None


@pytest.mark.parametrize("cone, corrupt, message", [
    # (1, 2) is 1 at a and -1 on the span element: ≤ 0, but not = 0
    (SPAN_SLOPE, lambda out: dataclasses.replace(out, primal=(F(1), F(2))),
     "separator failed re-verification"),
    # μ = -1 on the generator (-1, 0) gives (1, 0), which dominates the
    # target, but a generator's multiplier must be ≥ 0
    (SPAN_INSIDE, _dual(lambda dual: (F(-1), F(0), F(0), dual[-1])),
     "dominating cone point failed re-verification"),
    # a span pair's ν = μ⁺ − μ⁻ = -1 gives (-1, 0), short of the target
    (SPAN_INSIDE, _dual(lambda dual: (F(0), F(1), F(2), dual[-1])),
     "dominating cone point failed re-verification"),
], ids=["nonzero-on-span", "negative-generator-multiplier", "short-span-multiplier"])
def test_a_corrupted_span_separation_is_an_inconsistency(cone, corrupt, message, monkeypatch):
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: corrupt(solve(problem)))
    with pytest.raises(InternalInconsistency, match=message) as caught:
        separate_at(cone, TWO.indicator("a"))
    assert caught.value.data["cone"] == cone


def test_separate_at_rejects_a_separator_with_a_negative_entry(monkeypatch):
    # (-1, 2) is 1 at the target and -3 on the generator, but negative at b
    solve = lp.solve
    corrupted = (F(-1), F(2))
    monkeypatch.setattr(lp, "solve",
                        lambda problem: dataclasses.replace(solve(problem), primal=corrupted))
    cone = orthant_cone(TWO, [TWO.variable([1, -1])])
    with pytest.raises(InternalInconsistency, match="separator failed re-verification"):
        separate_at(cone, TWO.variable([1, 1]))


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


def test_the_integer_cone_checks_match_the_fraction_reference():
    """On seeded vectors, ``cones.capped``, ``cones.covers`` and
    ``_is_separating`` (``capped`` at 0 plus f·h = 0 on the span) give the
    answers of the same conditions summed as ``Fraction``s, and each
    answer is seen both ways."""
    rng = random.Random(41)

    def vector(low=-1):
        return [F(rng.randint(low, 2), rng.randint(1, 3)) for _ in THREE.outcomes]

    seen = set()
    for _ in range(400):
        gens = [vector() for _ in range(rng.randint(0, 3))]
        span = [vector() for _ in range(rng.randint(0, 2))]
        cone = PolyhedralCone(THREE, [THREE.variable(g) for g in gens],
                              [THREE.variable(h) for h in span])
        vectors = (*cone.int_generators, *cone.int_span)
        f = vector(low=rng.choice([-1, 0]))
        fints, fden = to_integers(f)
        cap = rng.randint(0, 2)  # over fden, as f
        want = all(v >= 0 for v in f) and all(dot(g, f) <= F(cap, fden) for g in gens)
        assert capped(cone.int_generators, fints, cap) == want
        want = (all(v >= 0 for v in f) and all(dot(g, f) <= 0 for g in gens)
                and all(dot(h, f) == 0 for h in span))
        assert separation._is_separating(cone, fints) == want
        seen.add(("separating", want))
        lam = [F(rng.randint(-1, 3), rng.randint(1, 2)) for _ in vectors]
        lints, ld = to_integers(lam)
        target = vector()
        want = all(dot(lam, column) >= t for column, t in zip(zip(*gens, *span), target))
        if vectors:
            assert covers(vectors, lints, ld, *to_integers(target)) == want
            seen.add(("covers", want))
        assert not covers(vectors, [*lints, 1], ld, *to_integers(target))
    assert seen == {(check, answer) for check in ("separating", "covers")
                    for answer in (False, True)}
