from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from noarb.errors import StructureError
from noarb.lattice import Measure, RandomVariable, SampleSpace

TWO = SampleSpace(["a", "b"], [F(1, 2), F(1, 2)])

values = st.fractions(min_value=-5, max_value=5, max_denominator=8)

#: Exact rationals of either sign: 0, small ones, and 300-digit denominators.
signed = st.one_of(
    st.just(F(0)),
    values,
    st.builds(F, st.integers(min_value=-10 ** 300, max_value=10 ** 300),
              st.integers(min_value=10 ** 299, max_value=10 ** 300)),
)


def rv(space):
    return st.builds(lambda vs: RandomVariable(space, vs),
                     st.lists(values, min_size=len(space), max_size=len(space)))


def spaces(max_outcomes=4):
    return st.integers(min_value=1, max_value=max_outcomes).map(SampleSpace.uniform)


def test_componentwise_examples():
    x = TWO.variable([1, -2])
    y = TWO.variable([0, 0])
    assert x.sup(y).values == (F(1), F(0))
    assert x.inf(y).values == (F(0), F(-2))
    assert abs(x).values == (F(1), F(2))
    assert x.pos_part().values == (F(1), F(0))
    assert x.neg_part().values == (F(0), F(2))


def test_order_examples():
    assert TWO.variable([0, 0]) <= TWO.variable([1, 0])
    assert not TWO.variable([1, 0]) <= TWO.variable([0, 1])
    assert TWO.variable([1, 0]) >= TWO.variable([0, 0])
    assert not TWO.variable([1, 0]) >= TWO.variable([0, 1])
    assert TWO.zero().is_nonneg and TWO.zero().is_zero
    third = TWO.variable([F(1, 3), 0])
    assert third.is_nonneg and not third.is_zero
    assert not TWO.variable([1, F(-1, 7)]).is_nonneg


def test_space_validation():
    with pytest.raises(StructureError):
        SampleSpace(["a", "a"], [F(1, 2), F(1, 2)])
    with pytest.raises(StructureError):
        SampleSpace(["a", "b"], [F(1, 2), F(1, 3)])
    with pytest.raises(StructureError):
        SampleSpace(["a", "b"], [F(0), F(1)])
    with pytest.raises(StructureError):
        RandomVariable(TWO, [1])


def test_mismatched_spaces_rejected():
    other = SampleSpace(["a", "b"], [F(1, 3), F(2, 3)])
    with pytest.raises(StructureError):
        TWO.variable([1, 2]).sup(other.variable([1, 2]))
    with pytest.raises(StructureError):
        TWO.variable([1, 2]) + other.variable([1, 2])


@given(data=st.data(), space=spaces())
def test_lattice_identities(data, space):
    x = data.draw(rv(space))
    y = data.draw(rv(space))
    assert abs(x) == x.pos_part() + x.neg_part()
    assert x == x.pos_part() - x.neg_part()
    assert x.pos_part().inf(x.neg_part()).is_zero
    assert x.sup(y) + x.inf(y) == x + y
    assert x <= x.sup(y) and y <= x.sup(y)
    assert x.inf(y) <= x and x.inf(y) <= y


@given(data=st.data(), space=spaces())
def test_partial_order_axioms(data, space):
    x = data.draw(rv(space))
    y = data.draw(rv(space))
    z = data.draw(rv(space))
    assert x <= x
    if x <= y and y <= x:
        assert x == y
    if x <= y and y <= z:
        assert x <= z


@given(data=st.data(), space=spaces(),
       alpha=st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8))
def test_ordered_vector_space_axioms(data, space, alpha):
    x = data.draw(rv(space))
    y = data.draw(rv(space))
    z = data.draw(rv(space))
    if x <= y:
        assert x + z <= y + z
        assert x.scale(alpha) <= y.scale(alpha)


def test_expectation_uses_probabilities():
    space = SampleSpace(["u", "d"], [F(1, 3), F(2, 3)])
    x = space.variable([3, 0])
    assert Measure(space, space.probabilities).expectation(x) == 1
    assert Measure(space, [F(1, 2), F(1, 2)]).expectation(x) == F(3, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: SampleSpace([], []), "at least one outcome"),
    (lambda: SampleSpace(["a", "b"], [1]), "2 outcomes but 1 probabilities"),
    (lambda: SampleSpace(["a", "b"], [F(1, 2), F(1, 3)]), "probabilities sum to 5/6, not 1"),
    (lambda: SampleSpace.uniform(0), "need at least one outcome"),
    (lambda: TWO.variable([1, 2]).sup(1), "expected a RandomVariable, got 1"),
    (lambda: TWO.variable([1, 2]) >= SampleSpace(["a", "b"], [F(1, 3), F(2, 3)]).variable([0, 0]),
     "random variables live on different sample spaces"),
], ids=["no-outcomes", "probability-count", "probability-sum", "uniform-empty",
        "not-a-variable", "ge-other-space"])
def test_input_validation_raises(call, message):
    with pytest.raises(StructureError, match=message):
        call()


@given(st.lists(signed, min_size=1, max_size=5), st.booleans())
def test_sign_tests_agree_with_comparisons_against_0(drawn, absolute):
    """The sign tests read numerators; each must agree with comparing the
    Fraction itself with 0."""
    drawn = [abs(v) for v in drawn] if absolute else drawn
    space = SampleSpace.uniform(len(drawn))
    x = RandomVariable(space, drawn)
    assert x.is_nonneg == all(v >= 0 for v in drawn)
    assert x.is_zero == all(v == 0 for v in drawn)
    weights = [*drawn[:-1], 1 - sum(drawn[:-1])]  # mass 1
    if any(w < 0 for w in weights):
        with pytest.raises(StructureError, match="must be nonnegative"):
            Measure(space, weights)
    else:
        assert Measure(space, weights).is_equivalent == all(w > 0 for w in weights)
    outcomes = [f"w{k}" for k in range(len(weights))]
    if any(w <= 0 for w in weights):
        with pytest.raises(StructureError, match="must be > 0"):
            SampleSpace(outcomes, weights)
    else:
        assert SampleSpace(outcomes, weights).probabilities == tuple(weights)
