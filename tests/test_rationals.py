from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from noarb.rationals import dot

_MERSENNE_61 = 2 ** 61 - 1

scalars = st.one_of(
    st.just(0),
    st.integers(-10 ** 6, 10 ** 6),
    st.builds(F, st.integers(-2 ** 70, 2 ** 70),
              st.sampled_from([1, 2, 3, 7, 2 ** 31 - 1, _MERSENNE_61])),
    st.fractions(max_denominator=_MERSENNE_61),
)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(scalars, scalars), max_size=12))
@example(pairs=[])
@example(pairs=[(0, F(1, 3)), (F(-2, 5), 0), (0, 0)])
@example(pairs=[(F(1, _MERSENNE_61), F(-1, 2 ** 31 - 1)), (F(-3, 2 ** 31 - 1), F(5, 7))])
# a CRR root cell: every weight over 3^10, so every term shares one denominator
@example(pairs=[(F(2 ** i, 3 ** 10), F((-1) ** i * (i + 1))) for i in range(12)])
def test_dot_is_the_fraction_sum(pairs):
    a, x = [p for p, _ in pairs], [q for _, q in pairs]
    got = dot(a, x)
    assert type(got) is F
    assert got == sum([F(p) * F(q) for p, q in pairs], F(0))


def test_dot_of_coprime_denominators():
    p, q = _MERSENNE_61, 2 ** 31 - 1
    got = dot([F(1, p), F(1, q)], [F(1), F(-1)])
    assert got == F(q - p, p * q)
    assert (got.numerator, got.denominator) == (q - p, p * q)


@pytest.mark.parametrize("a, x", [([F(1)], [F(1), F(2)]), ([F(1), F(2)], [F(1)]),
                                  ([], [F(0)])])
def test_dot_rejects_unequal_lengths(a, x):
    with pytest.raises(ValueError):
        dot(a, x)
