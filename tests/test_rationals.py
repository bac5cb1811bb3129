import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from noarb.errors import StructureError
from noarb.rationals import as_fraction, dot, parse_rational

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


_spaces = st.sampled_from(["", " ", "  ", "\t", "\n", " \t\n "])


@settings(max_examples=300, deadline=None)
@given(lead=_spaces, sign=st.sampled_from(["", "+", "-"]),
       numerator=st.from_regex(r"[0-9]{1,40}", fullmatch=True),
       denominator=st.one_of(st.none(), st.integers(1, 10 ** 40)), trail=_spaces)
@example(lead="", sign="-", numerator="000", denominator=7, trail="")
@example(lead=" ", sign="+", numerator="0012", denominator=18, trail="\n")
def test_parse_rational_is_fractions_parse_on_its_grammar(lead, sign, numerator,
                                                          denominator, trail):
    text = f"{lead}{sign}{numerator}" + ("" if denominator is None else f"/{denominator}") + trail
    got = parse_rational(text)
    assert type(got) is F
    assert got == F(text.strip())


@pytest.mark.parametrize("text", ["1/0", "1.5", "1e3", "1_000", "3/", "/3", "3 / 4", "",
                                  "1/-2", "1/02", "--1", "0x10"])
def test_parse_rational_rejects_text_outside_its_grammar(text):
    with pytest.raises(StructureError, match="not an exact rational"):
        parse_rational(text)


@pytest.mark.parametrize("text", ["\u00a01", "1\u3000", "\u20031/2"])
def test_parse_rational_strips_ascii_whitespace_only(text):
    # str.strip() takes these Unicode spaces too; the grammar is ASCII
    assert F(text) is not None
    with pytest.raises(StructureError, match="not an exact rational"):
        parse_rational(text)


@pytest.mark.parametrize("template", ["{}", "-{}", "1/{}", "{}/3"])
def test_parse_rational_maps_the_int_str_limit_to_structure_error(template):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(StructureError, match="rational too large at \\$.x"):
        parse_rational(template.format(digits), "$.x")


_non_ascii_digits = st.characters(categories=["Nd"]).filter(lambda ch: not ch.isascii())


@settings(max_examples=300, deadline=None)
@given(digit=_non_ascii_digits, head=st.from_regex(r"[0-9]{0,5}", fullmatch=True),
       tail=st.from_regex(r"[0-9]{0,5}", fullmatch=True),
       sign=st.sampled_from(["", "+", "-"]), in_denominator=st.booleans())
@example(digit="２", head="", tail="", sign="", in_denominator=False)
@example(digit="٣", head="", tail="", sign="", in_denominator=False)
def test_parse_rational_rejects_non_ascii_digits(digit, head, tail, sign, in_denominator):
    # int() and Fraction() read any Unicode decimal digit; the grammar is ASCII
    number = f"{head}{digit}{tail}"
    text = f"{sign}3/1{number}" if in_denominator else f"{sign}{number}"
    assert F(text) is not None
    with pytest.raises(StructureError, match="not an exact rational"):
        parse_rational(text)


@pytest.mark.parametrize("value, message", [
    (None, "not a rational value: None"),
    (1.5, "floats are not exact: 1.5"),
    ("0.5", "not an exact rational"),
], ids=["none", "float", "decimal-string"])
def test_as_fraction_rejects_what_is_not_rational(value, message):
    with pytest.raises(StructureError, match=message):
        as_fraction(value)
