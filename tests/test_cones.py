import dataclasses
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from noarb import lab, lp
from noarb.cones import (
    PolyhedralCone,
    SemiSolidSet,
    cone_member,
    minkowski,
    semisolid_member,
    sup_norm,
    sup_squared_norm,
    zero_set_trivial,
)
from noarb.errors import InternalInconsistency, StructureError
from noarb.lattice import RandomVariable, SampleSpace
from noarb.market import payoff_cone

from global_routes import primal_gauge, primal_member

TWO = SampleSpace(["a", "b"], [F(1, 2), F(1, 2)])


def test_cone_membership_examples():
    cone = PolyhedralCone(TWO, [TWO.variable([1, -1])])
    assert cone_member(cone, TWO.variable([1, -2]))      # λ=1, w=(0,1)
    assert not cone_member(cone, TWO.variable([1, 0]))   # Farkas-backed "no"
    assert cone_member(cone, TWO.zero())


def test_semisolid_membership_examples():
    B = SemiSolidSet(TWO, [TWO.variable([1, 1])])
    half = TWO.variable([F(1, 2), F(1, 2)])
    assert semisolid_member(B, half, 1)
    assert not semisolid_member(B, half, F(1, 4))   # needs Σλ ≥ 1/2
    assert not semisolid_member(B, TWO.variable([1, -1]), 1)


def test_semisolid_rejects_negative_generators():
    with pytest.raises(StructureError):
        SemiSolidSet(TWO, [TWO.variable([1, -1])])


def counterexample_set(n):
    space = SampleSpace.uniform(n)
    gens = [space.indicator(space.outcomes[k]).scale(k + 1) for k in range(n)]
    return space, SemiSolidSet(space, gens)


def test_minkowski_examples():
    space, B = counterexample_set(3)
    assert minkowski(B, space.zero()) == 0
    assert minkowski(B, space.indicator("w2")) == F(1, 2)
    assert minkowski(B, space.variable([1, 1, 0])) == F(3, 2)


def test_minkowski_infinite_off_support():
    B = SemiSolidSet(TWO, [TWO.variable([1, 0])])
    assert minkowski(B, TWO.variable([0, 1])) == math.inf
    assert minkowski(B, TWO.variable([-1, 0])) == math.inf
    assert zero_set_trivial(B)


def test_minkowski_rejects_an_infeasible_gauge_lp(monkeypatch):
    """The gauge LP, max x·y over y ≥ 0 with g·y ≤ 1, is feasible at y = 0,
    so an infeasible one is the solver's fault, not a missing gauge: it
    raises, carrying the set."""
    space, B = counterexample_set(3)
    x = space.indicator("w2")
    monkeypatch.setattr(lp, "solve", lambda problem: lp.LpOutcome(status=lp.INFEASIBLE))
    with pytest.raises(InternalInconsistency, match="gauge LP cannot be infeasible") as caught:
        minkowski(B, x)
    assert caught.value.data["bset"] == B and caught.value.data["x"] == x


def test_semisolid_member_rejects_an_infeasible_membership_lp(monkeypatch):
    """The membership LP is feasible at y = 0, μ = 0, so an infeasible one
    raises, carrying the set."""
    space, B = counterexample_set(3)
    monkeypatch.setattr(lp, "solve", lambda problem: lp.LpOutcome(status=lp.INFEASIBLE))
    with pytest.raises(InternalInconsistency, match="membership LP cannot be infeasible") as caught:
        semisolid_member(B, space.indicator("w2"), 1)
    assert caught.value.data["bset"] == B


def _instance(name):
    """(set, point, route, answer) of one named certificate instance.

    On counterexample_set(3), generators k·e_k: the gauge LP at e_2 is
    optimal at y = (0, 1/2, 0) with duals λ = (0, 1/2, 0) and optimum 1/2;
    membership of e_2 in 1·B is optimal at 0 with duals (0, 1/2, 0), and
    in (1/4)·B unbounded along the ray (y, μ) = (0, 1/2, 0, 1).  On TWO,
    the gauge LP of {(1, 0)} at (0, 1) is unbounded along (0, 1), and
    (1/2, 1) is not in (1/2)·B for B = {(1, 1), (1, 0)}."""
    space, B = counterexample_set(3)
    e2 = space.indicator("w2")
    return {
        "gauge": (B, e2, minkowski, F(1, 2)),
        "off-support": (SemiSolidSet(TWO, [TWO.variable([1, 0])]), TWO.variable([0, 1]),
                        minkowski, math.inf),
        "member": (B, e2, semisolid_member, True),
        "outside": (B, e2, lambda bset, x: semisolid_member(bset, x, F(1, 4)), False),
        "outside-two": (SemiSolidSet(TWO, [TWO.variable([1, 1]), TWO.variable([1, 0])]),
                        TWO.variable([F(1, 2), 1]),
                        lambda bset, x: semisolid_member(bset, x, F(1, 2)), False),
    }[name]


@pytest.mark.parametrize("name, changes", [
    ("gauge", dict(primal=(0, F(1, 4), 0))),       # feasible, but x·y = 1/4 below the optimum
    ("gauge", dict(primal=(0, 1, 0))),             # 2·y_2 > 1 and x·y = 1
    ("gauge", dict(primal=(F(-1, 2), F(1, 2), 0))),  # x·y = 1/2 and g·y ≤ 1, but y_1 < 0
    ("gauge", dict(dual=(0, F(1, 4), 0))),         # 2·λ_2 < 1 = x_2, and Σλ below the optimum
    ("gauge", dict(dual=(1, F(1, 2), 0))),         # covers x, but Σλ = 3/2
    ("gauge", dict(dual=(F(-1, 2), F(1, 2), F(1, 2)))),  # Σλ = 1/2, but λ_1 < 0
    ("gauge", dict(objective_value=1)),
    ("off-support", dict(ray=(1, 1))),             # g·r = 1 > 0
    ("off-support", dict(ray=(-1, 1))),            # g·r ≤ 0 and x·r > 0, but r_1 < 0
    ("off-support", dict(ray=(0, 0))),             # x·r = 0
    ("member", dict(dual=(0, F(1, 4), 0))),        # 2·λ_2 < 1 = x_2
    ("member", dict(dual=(0, 2, 0))),              # covers x, but Σλ = 2 > 1
    ("member", dict(dual=(0, 1))),                 # one multiplier short
    ("member", dict(objective_value=1)),
    ("outside", dict(ray=(0, F(1, 2), 0, 2))),     # x·y = s·μ
    ("outside", dict(ray=(0, 1, 0, 1))),           # g_2·y = 2 > μ
    ("outside", dict(ray=(0, F(1, 2), 0, -1))),    # μ < 0
    ("outside", dict(ray=(-1, F(1, 2), 0, 1))),    # y_1 < 0
    # (1, 1) − (1/2)·(1, 0) covers (1/2, 1) with Σλ = 1/2, but λ_2 < 0
    ("outside-two", dict(status=lp.OPTIMAL, dual=(1, F(-1, 2)), objective_value=0)),
], ids=["gauge-primal-below", "gauge-primal-infeasible", "gauge-primal-negative",
        "gauge-dual-short", "gauge-dual-over", "gauge-dual-negative", "gauge-optimum",
        "gauge-ray-generator", "gauge-ray-negative", "gauge-ray-zero",
        "member-dual-short", "member-dual-over", "member-dual-length", "member-optimum",
        "member-ray-gain", "member-ray-generator", "member-ray-mu", "member-ray-negative",
        "member-dual-negative"])
def test_a_corrupted_certificate_raises_with_the_set(name, changes, monkeypatch):
    """Each gauge and membership answer is checked on its LP's own primal,
    duals, optimum or ray: one corrupted entry raises
    ``InternalInconsistency`` carrying the set, never an answer."""
    bset, x, route, answer = _instance(name)
    assert route(bset, x) == answer  # the uncorrupted outcome passes its check
    solve = lp.solve
    monkeypatch.setattr(lp, "solve",
                        lambda problem: dataclasses.replace(solve(problem), **changes))
    with pytest.raises(InternalInconsistency, match="failed re-verification") as caught:
        route(bset, x)
    assert caught.value.data["bset"] == bset and caught.value.data["x"] == x


def test_gauge_and_membership_equal_the_primal_lps():
    """On 2000 seeded instances, each gauge equals the primal min Σ λ LP's
    optimum (+inf where it is infeasible), and each membership the primal
    feasibility LP's verdict, exactly: the dual forms change no answer."""
    rng = random.Random(38)
    gauges, members = [], []
    for _ in range(2000):
        B = lab.random_semisolid(rng)
        space = B.space
        draw = rng.random()
        if draw < 0.4:
            x = lab.random_member(rng, B)
        elif draw < 0.9:
            x = lab.random_point(rng, space)
        elif draw < 0.95:
            x = space.zero()
        else:  # one negative entry
            x = RandomVariable(space, [-v if i == 0 else v for i, v in
                                       enumerate(lab.random_point(rng, space).values)])
        gauge = minkowski(B, x)
        assert gauge == primal_gauge(B, x), (B, x)
        gauges.append(gauge)
        scales = [F(rng.randint(1, 8), rng.randint(1, 4))]
        if gauge not in (0, math.inf):
            scales += [gauge, gauge * F(7, 8)]
        for scale in scales:
            member = semisolid_member(B, x, scale)
            assert member == primal_member(B, x, scale), (B, x, scale)
            members.append(member)
    finite = [g for g in gauges if g != math.inf]
    assert 300 < len(finite) < 1700 and 0 < finite.count(0) < len(finite)  # all kinds pinned
    assert 0.2 < sum(members) / len(members) < 0.8


def test_sup_norm():
    assert sup_norm(SemiSolidSet(TWO, [TWO.variable([1, 1])])) == 1
    assert sup_norm(SemiSolidSet(TWO, [])) == 0
    _, B100 = counterexample_set(100)
    assert sup_norm(B100) == 100
    assert sup_squared_norm(B100) == 10000


def test_zero_set_trivial_examples():
    B = SemiSolidSet(TWO, [TWO.variable([1, 1])])
    assert minkowski(B, TWO.indicator("a")) == 1
    assert minkowski(B, TWO.indicator("b")) == 1
    assert zero_set_trivial(B)


def test_empty_set_is_origin_only():
    B = SemiSolidSet(TWO, [])
    assert semisolid_member(B, TWO.zero(), 1)
    assert not semisolid_member(B, TWO.variable([F(1, 9), 0]), 1)
    assert minkowski(B, TWO.zero()) == 0


def random_semisolid(rng, space):
    gens = []
    for _ in range(rng.randint(1, 4)):
        gens.append(RandomVariable(
            space, [F(rng.randint(0, 6), rng.randint(1, 4)) for _ in space.outcomes]))
    return SemiSolidSet(space, gens)


def random_member(rng, bset):
    weights = [F(rng.randint(0, 5), 1) for _ in bset.generators]
    total = sum(weights) or F(1)
    lam = [w / total * F(rng.randint(0, 4), 4) for w in weights]
    dominating = bset.space.zero()
    for coef, g in zip(lam, bset.generators):
        dominating = dominating + g.scale(coef)
    shrink = [F(rng.randint(0, 4), 4) for _ in bset.space.outcomes]
    return RandomVariable(bset.space, [s * v for s, v in zip(shrink, dominating.values)])


def test_gauge_vs_membership_boundary():
    # lemma: αB = {gauge ≤ α} ∩ V₊ for α in (0,1); attainment makes it exact
    rng = random.Random(5)
    space = SampleSpace.uniform(3)
    for _ in range(40):
        B = random_semisolid(rng, space)
        x = random_member(rng, B) if rng.random() < 0.7 else RandomVariable(
            space, [F(rng.randint(0, 8), rng.randint(1, 3)) for _ in space.outcomes])
        alpha = F(rng.randint(1, 9), 10)
        gauge = minkowski(B, x)
        assert semisolid_member(B, x, alpha) == (gauge <= alpha)
        if gauge not in (0, math.inf):
            assert semisolid_member(B, x, gauge)            # infimum attained
            assert not semisolid_member(B, x, gauge / 2)


def test_gauge_monotone_and_homogeneous():
    rng = random.Random(6)
    space = SampleSpace.uniform(3)
    for _ in range(30):
        B = random_semisolid(rng, space)
        y = random_member(rng, B)
        x = RandomVariable(space, [v * F(rng.randint(0, 4), 4) for v in y.values])
        gx, gy = minkowski(B, x), minkowski(B, y)
        assert gx <= gy
        alpha = F(rng.randint(1, 8), rng.randint(1, 4))
        gax = minkowski(B, x.scale(alpha))
        if gx == math.inf:
            assert gax == math.inf
        else:
            assert gax == alpha * gx


def test_semisolidity_and_convexity_of_members():
    rng = random.Random(7)
    space = SampleSpace.uniform(4)
    for _ in range(30):
        B = random_semisolid(rng, space)
        x = random_member(rng, B)
        y = random_member(rng, B)
        assert semisolid_member(B, x, 1) and semisolid_member(B, y, 1)
        mid = RandomVariable(space, [(a + b) / 2 for a, b in zip(x.values, y.values)])
        assert semisolid_member(B, mid, 1)
        down = RandomVariable(space, [v * F(rng.randint(0, 3), 3) for v in x.values])
        assert semisolid_member(B, down, 1)


@settings(max_examples=40, deadline=None)
@given(scale=st.fractions(min_value=F(1, 6), max_value=4, max_denominator=6))
def test_gauge_values_on_and_off_the_set(scale):
    space, B = counterexample_set(2)
    x = space.variable([scale, 0])
    gauge = minkowski(B, x)
    inside = semisolid_member(B, x, 1)
    assert (gauge <= 1) == inside
    if not inside:
        assert gauge >= 1


def cone_member_reference(cone, x):
    """x = Σ λ_g·g − w as equality rows, with w ≥ 0 as n extra columns, a −I
    block: the formulation ``cone_member`` states as ``>=`` rows."""
    n, gens = len(cone.space), cone.generators
    rows = [[g.values[i] for g in gens] + [F(-1) if k == i else F(0) for k in range(n)]
            for i in range(n)]
    return lp.feasible(lp.LpProblem([0] * (len(gens) + n), rows, ["=="] * n,
                                    list(x.values)))


def test_cone_member_matches_the_identity_block_reference():
    rng = random.Random(20)
    verdicts = []
    for _ in range(400):
        space = SampleSpace.uniform(rng.randint(1, 4))

        def vector(lo):
            return [F(rng.randint(lo, 4), rng.randint(1, 3)) for _ in space.outcomes]

        gens = [RandomVariable(space, vector(-4)) for _ in range(rng.randint(0, 4))]
        cone = PolyhedralCone(space, gens)
        if rng.random() < 0.5:  # any point
            x = RandomVariable(space, vector(-4))
        else:  # a member
            lam = [F(rng.randint(0, 3), rng.randint(1, 2)) for _ in gens]
            top = [sum([l * g.values[i] for l, g in zip(lam, gens)], F(0))
                   for i in range(len(space))]
            x = RandomVariable(space, [t - v for t, v in zip(top, vector(0))])
        verdict = cone_member(cone, x)
        assert verdict == cone_member_reference(cone, x), (cone, x)
        verdicts.append(verdict)
    assert 50 < sum(verdicts) < 350  # both verdicts are pinned


def test_cone_member_poses_the_rational_constructors_lp(monkeypatch):
    """``cone_member`` poses its LP from the cone's integers; it is the LP
    the rational constructor builds from the vectors' values, row for row."""
    rng = random.Random(22)
    posed = []
    feasible = lp.feasible
    monkeypatch.setattr(lp, "feasible", lambda problem: posed.append(problem) or feasible(problem))
    for _ in range(100):
        space = SampleSpace.uniform(rng.randint(1, 4))

        def vector():
            return RandomVariable(space, [F(rng.randint(-4, 4), rng.randint(1, 3))
                                          for _ in space.outcomes])

        gens, span = [vector() for _ in range(rng.randint(0, 3))], [vector()] * rng.randint(0, 2)
        x = vector()
        cone_member(PolyhedralCone(space, gens, span), x)
        vectors = (*gens, *span)
        rows = [[v.values[i] for v in vectors] for i in range(len(space))]
        assert posed[-1] == lp.LpProblem([0] * len(vectors), rows, [">="] * len(rows),
                                         list(x.values),
                                         free=range(len(gens), len(vectors)))


def test_cone_member_on_a_span_matches_its_generator_pairs():
    """On seeded markets' payoff cones, whose gains are all ``span``, and on
    the same cones with a generator added, membership equals that of the
    cone written with each span element as the generator pair ±h: a span
    element is a free column, so every gain's negative is a member."""
    rng = random.Random(21)
    verdicts = []
    for _ in range(60):
        model = lab.random_market(rng, max_outcomes=5, max_periods=2)
        space = model.space
        cone = payoff_cone(model)
        extra = [RandomVariable(space, [F(rng.randint(-3, 3)) for _ in space.outcomes])]
        for spanned in (cone, PolyhedralCone(space, extra, cone.span)):
            pairs = PolyhedralCone(space, [*spanned.generators,
                                           *[v for h in spanned.span for v in (h, -h)]])
            points = [-h for h in spanned.span if not h.is_zero][:2]
            points += [RandomVariable(space, [F(rng.randint(-4, 4), rng.randint(1, 3))
                                              for _ in space.outcomes]) for _ in range(3)]
            for x in points:
                verdict = cone_member(spanned, x)
                assert verdict == cone_member(pairs, x), (spanned, x)
                verdicts.append(verdict)
            assert all(cone_member(spanned, -h) for h in spanned.span)
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts are pinned


OTHER = SampleSpace(["a", "b"], [F(1, 3), F(2, 3)])


@pytest.mark.parametrize("call, message", [
    (lambda: PolyhedralCone(TWO, [OTHER.zero()]), "cone generator on a different sample space"),
    (lambda: SemiSolidSet(TWO, [OTHER.zero()]), "generator on a different sample space"),
    (lambda: cone_member(PolyhedralCone(TWO, []), OTHER.zero()),
     "point lives on a different sample space"),
    (lambda: semisolid_member(SemiSolidSet(TWO, []), TWO.zero(), 0), "scale must be > 0"),
    (lambda: PolyhedralCone.from_integers(TWO, [((1,), 1)]), "one integer per outcome"),
    (lambda: PolyhedralCone.from_integers(TWO, [], [((1, 1), 0)]), "one integer per outcome"),
    (lambda: PolyhedralCone.from_integers(TWO, [((1, 1), F(1))]), "one integer per outcome"),
], ids=["cone-generator", "semisolid-generator", "member-point", "scale", "integer-length",
        "integer-zero-scale", "integer-fraction-scale"])
def test_input_validation_raises(call, message):
    with pytest.raises(StructureError, match=message):
        call()


def test_a_cone_holds_its_vectors_as_integers():
    """The constructor converts each vector to integers over its lcm once;
    ``from_integers`` on those pairs gives the same cone, whose vectors are
    built back on first read."""
    gens, span = [TWO.variable([1, F(-1, 2)])], [TWO.variable([F(2, 3), 0])]
    cone = PolyhedralCone(TWO, gens, span)
    assert cone.int_generators == (((2, -1), 2),) and cone.int_span == (((2, 0), 3),)
    again = PolyhedralCone.from_integers(TWO, cone.int_generators, cone.int_span)
    assert again == cone and again.generators == tuple(gens) and again.span == tuple(span)
