import random
from fractions import Fraction as F

import pytest

from noarb import lab
from noarb.concepts import full_verdict
from noarb.cones import minkowski
from noarb.errors import StructureError


def test_counterexample_generators():
    b1 = lab.build_counterexample(1)
    assert [g.values for g in b1.generators] == [(F(1),)]
    b3 = lab.build_counterexample(3)
    assert [g.values for g in b3.generators] == [
        (F(1), F(0), F(0)),
        (F(0), F(2), F(0)),
        (F(0), F(0), F(3)),
    ]
    with pytest.raises(StructureError):
        lab.build_counterexample(0)


def test_counterexample_indicator_gauges_are_reciprocal():
    bset = lab.build_counterexample(5)
    for k, e in enumerate(bset.space.indicators(), start=1):
        assert minkowski(bset, e) == F(1, k)


def test_counterexample_report_small():
    r1 = lab.counterexample_report(1)
    assert (r1.sup_squared_l2, r1.min_indicator_gauge, r1.zero_set_trivial) == (1, 1, True)
    r3 = lab.counterexample_report(3)
    assert r3.sup_squared_l2 == 9
    assert r3.sup_norm_linf == 3
    assert r3.min_indicator_gauge == F(1, 3)
    assert r3.zero_set_trivial


def test_random_market_is_valid_and_seeded():
    a = lab.random_market(random.Random(42))
    b = lab.random_market(random.Random(42))
    assert a == b
    assert a.horizon >= 1
    assert all(all(x.is_nonneg for x in asset.path) for asset in a.assets)


def test_random_markets_cover_both_verdicts():
    rng = random.Random(0)
    holds = fails = 0
    for _ in range(40):
        model = lab.random_market(rng, max_outcomes=5, max_periods=2)
        if full_verdict(model).na:
            holds += 1
        else:
            fails += 1
    assert holds > 0 and fails > 0


def test_lemma_suite_clean_run():
    report = lab.verify_lemma_suite(seed=1, instances=10)
    assert report.passed
    assert report.checks["semi-solid"] == 10
    assert report.checks["budget-scaling"] == 10
    assert "zero violations" in report.summary()


def test_lemma_suite_single_instance():
    report = lab.verify_lemma_suite(seed=2, instances=1)
    assert report.instances == 1
    assert report.passed


def test_lemma_suite_detects_injected_violation():
    report = lab.verify_lemma_suite(seed=1, instances=3, self_test=True)
    assert not report.passed
    assert any(v.instance == 0 for v in report.violations)
    assert "violation" in report.summary()


def test_lemma_suite_formats_a_detail_only_when_a_check_fails(monkeypatch):
    """A passing check formats nothing; the self-test's one failing check
    formats its point and gauge into the detail."""
    formatted = []
    to_str = lab.RandomVariable.__str__

    def counted(x):
        formatted.append(x)
        return to_str(x)

    monkeypatch.setattr(lab.RandomVariable, "__str__", counted)
    assert lab.verify_lemma_suite(seed=1, instances=10).passed
    assert formatted == []
    report = lab.verify_lemma_suite(seed=0, instances=5, self_test=True)
    [violation] = report.violations
    assert len(formatted) == 1 and str(formatted[0]) in violation.detail


def test_lemma_suite_rejects_zero_instances():
    with pytest.raises(StructureError):
        lab.verify_lemma_suite(seed=0, instances=0)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_counterexample_solves_each_indicator_gauge_once(n, lp_calls):
    report = lab.counterexample_report(n)
    assert report.zero_set_trivial
    assert len(lp_calls) == n


def test_trivial_intersection_check_catches_a_zero_indicator_gauge(monkeypatch):
    """A gauge route that returns 0 at an indicator contradicts boundedness."""
    from noarb import cones

    def broken(bset, x):
        if sorted(x.values) == [0] * (len(x.values) - 1) + [1]:
            return F(0)
        return minkowski(bset, x)

    for module in (cones, lab):
        monkeypatch.setattr(module, "minkowski", broken)
    report = lab.verify_lemma_suite(seed=0, instances=5)
    assert "trivial-intersection" in {v.lemma for v in report.violations}


def fraction_member(rng, bset):
    """``lab.random_member`` as a sum of ``Fraction`` products: the same
    draws, with λ_g = raw_g/total · budget and Σ_g λ_g·g per outcome."""
    space = bset.space
    if bset.generators:
        raw = [rng.randint(0, 5) for _ in bset.generators]
        total = sum(raw) or 1
        budget = F(rng.randint(0, 4), 4)
        lam = [F(w, total) * budget for w in raw]
        top = [sum([l * v for l, v in zip(lam, column)], F(0))
               for column in zip(*[g.values for g in bset.generators])]
    else:
        top = space.zero().values
    shrink = [F(rng.randint(0, 4), 4) for _ in space.outcomes]
    return tuple([s * v for s, v in zip(shrink, top)])


def test_random_member_is_the_fraction_formula():
    """On seeded sets, ``random_member``'s integer sum gives the values of
    the ``Fraction`` formula, and leaves the rng where that formula does."""
    rng = random.Random(43)
    for _ in range(300):
        bset = lab.random_semisolid(rng)
        twin = random.Random()
        twin.setstate(rng.getstate())
        assert lab.random_member(rng, bset).values == fraction_member(twin, bset)
        assert rng.getstate() == twin.getstate()
