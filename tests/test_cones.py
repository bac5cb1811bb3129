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


def test_minkowski_rejects_an_unbounded_gauge_lp(monkeypatch):
    """min Σ λ over λ ≥ 0 is bounded below by 0, so an unbounded gauge LP is
    the solver's fault, not a missing gauge: it raises, carrying the set."""
    space, B = counterexample_set(3)
    x = space.indicator("w2")
    monkeypatch.setattr(lp, "solve", lambda problem: lp.LpOutcome(status=lp.UNBOUNDED))
    with pytest.raises(InternalInconsistency, match="cannot be unbounded") as caught:
        minkowski(B, x)
    assert caught.value.data["bset"] == B and caught.value.data["x"] == x


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
