"""Exact rational scalars: parsing, formatting, coercion and integer pairs.

This module owns the library's exact-number policy.  Every number the
library takes or returns is a ``fractions.Fraction`` (arbitrary precision,
always lowest terms, positive denominator).  No sum of rational products
is summed as ``Fraction``s, which reduce by a gcd per term: a vector is
taken once to integers over its least common denominator
(``to_integers``), and each sum is one integer sum over one denominator.
``lp``'s rows, objective, tableau, outcomes and checks, the cones' and
semi-solid sets' vectors, ``lattice``'s weights and ``market``'s
increments, tree walks and LP rows all hold such pairs, and a ``Fraction``
is built only for a number that is handed on or read (``fractions_over``).
A rational is written in ASCII digits only.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import lcm

from .errors import StructureError

_ZERO = Fraction(0)
_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/([1-9]\d*))?", re.ASCII)


def parse_rational(text: str, where: str = "") -> Fraction:
    """Parse an exact rational string ``"p"`` or ``"p/q"`` in ASCII digits,
    ignoring surrounding ASCII whitespace (and no other: ``str.strip()``
    would also take a no-break or an ideographic space).

    Decimal notation is rejected on purpose: floats are never exact and this
    library never rounds.
    """
    ctx = f" at {where}" if where else ""
    if not isinstance(text, str) or not (
            match := _RATIONAL_RE.fullmatch(text.strip(" \t\n\r\f\v"))):
        raise StructureError(
            f"not an exact rational{ctx}: {text!r} (expected 'p' or 'p/q', no decimals)"
        )
    try:  # from the matched integers: Fraction(str) would parse the text again
        return Fraction(int(match[1]), int(match[2] or 1))
    except ValueError:  # Python's int/str conversion limit
        raise StructureError(
            f"rational too large{ctx}: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None


def format_rational(value) -> str:
    """Render a rational as ``"p"`` or ``"p/q"``, the inverse of parse_rational.

    Integers are written through ``Decimal``, which is exact at any length and,
    unlike ``str(int)``, not bound by Python's limit on int-to-str digits, so
    an exact answer of any size prints.
    """
    value = Fraction(value)
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and rational strings to Fraction; reject floats."""
    if type(value) is Fraction:  # a subclass is rebuilt below as a plain Fraction
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise StructureError(f"floats are not exact: {value!r}")
    try:
        return Fraction(value.numerator, value.denominator)
    except AttributeError:
        raise StructureError(f"not a rational value: {value!r}") from None


def as_fractions(values) -> tuple[Fraction, ...]:
    """``as_fraction`` of each value, as a tuple."""
    # built from a list: tuple(<generator>) over-allocates and reallocs, and
    # the freed tuple sits on a size-k freelist until a full collection; an
    # exact Fraction, the common case, passes through without a call
    return tuple([v if type(v) is Fraction else as_fraction(v) for v in values])


def to_integers(values) -> tuple[tuple[int, ...], int]:
    """Rationals as the pair ``(ints, den)``: integers over their least
    common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*[q for _, q in ratios])
    return tuple([p * (den // q) for p, q in ratios]), den


def fractions_over(ints, den: int) -> tuple[Fraction, ...]:
    """Each integer over ``den`` > 0 as a ``Fraction``: ``to_integers``' inverse."""
    return tuple([Fraction(a, den) if a else _ZERO for a in ints])

