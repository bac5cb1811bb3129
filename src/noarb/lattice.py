"""Finite sample spaces, the probability measures on them, and the vector
lattice of random variables on them.

With finitely many outcomes and every outcome carrying strictly positive
probability, almost-sure order is componentwise order, so all lattice
operations and order predicates are decidable exactly.  Every stored value
is a ``Fraction``, whose denominator is positive, so a sign test against 0
reads the numerator alone: no ``Fraction`` comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import StructureError
from .rationals import as_fraction, as_fractions, to_integers

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class SampleSpace:
    """Ordered finite outcome set with strictly positive exact probabilities."""

    outcomes: tuple[str, ...]
    probabilities: tuple[Fraction, ...]

    def __init__(self, outcomes: Sequence[str], probabilities: Sequence) -> None:
        outcomes = tuple([str(o) for o in outcomes])
        probs = as_fractions(probabilities)
        if not outcomes:
            raise StructureError("sample space needs at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise StructureError("outcome identifiers must be unique")
        if len(probs) != len(outcomes):
            raise StructureError(
                f"{len(outcomes)} outcomes but {len(probs)} probabilities"
            )
        if any(p.numerator <= 0 for p in probs):
            raise StructureError("every outcome probability must be > 0")
        ints, den = to_integers(probs)
        if (total := sum(ints)) != den:
            raise StructureError(f"probabilities sum to {Fraction(total, den)}, not 1")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "probabilities", probs)

    def __len__(self) -> int:
        return len(self.outcomes)

    def index(self, outcome: str) -> int:
        try:
            return self.outcomes.index(outcome)
        except ValueError:
            raise StructureError(f"unknown outcome {outcome!r}") from None

    @classmethod
    def uniform(cls, n: int) -> "SampleSpace":
        """Outcomes w1..wn, each with probability 1/n."""
        if n < 1:
            raise StructureError("need at least one outcome")
        return cls([f"w{k}" for k in range(1, n + 1)], [Fraction(1, n)] * n)

    def variable(self, values: Iterable) -> "RandomVariable":
        return RandomVariable(self, values)

    def constant(self, value) -> "RandomVariable":
        return RandomVariable(self, [as_fraction(value)] * len(self))

    def zero(self) -> "RandomVariable":
        return self.constant(0)

    def indicator(self, outcome: str) -> "RandomVariable":
        i = self.index(outcome)
        vals = [_ZERO] * len(self)
        vals[i] = _ONE
        return RandomVariable(self, vals)

    def indicators(self) -> list["RandomVariable"]:
        return [self.indicator(o) for o in self.outcomes]


@dataclass(frozen=True)
class Measure:
    """A probability measure on the space's outcomes (not necessarily ≈ ℙ)."""

    space: SampleSpace
    weights: tuple[Fraction, ...]

    def __init__(self, space: SampleSpace, weights) -> None:
        ws = as_fractions(weights)
        if len(ws) != len(space):
            raise StructureError("one weight per outcome required")
        if any(w.numerator < 0 for w in ws):
            raise StructureError("measure weights must be nonnegative")
        ints, den = to_integers(ws)
        if (total := sum(ints)) != den:
            raise StructureError(f"weights sum to {Fraction(total, den)}, not 1")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", ws)
        # the mass check's integers, for the expectation and the routes that
        # sum the weights again
        object.__setattr__(self, "_int_weights", (ints, den))

    @property
    def is_equivalent(self) -> bool:
        return all(w.numerator > 0 for w in self.weights)

    def expectation(self, x: RandomVariable) -> Fraction:
        if x.space != self.space:
            raise StructureError("random variable on a different space")
        (ws, den), (xs, xden) = self._int_weights, to_integers(x.values)
        return Fraction(sum([w * v for w, v in zip(ws, xs)]), den * xden)

    def density(self) -> tuple[Fraction, ...]:
        """dQ/dℙ per outcome; bounded and strictly positive when equivalent."""
        return tuple([w / p for w, p in zip(self.weights, self.space.probabilities)])


@dataclass(frozen=True)
class RandomVariable:
    """Exact-rational random variable: one value per outcome of its space."""

    space: SampleSpace
    values: tuple[Fraction, ...]

    def __init__(self, space: SampleSpace, values: Iterable) -> None:
        vals = as_fractions(values)
        if len(vals) != len(space):
            raise StructureError(
                f"{len(vals)} values for a space with {len(space)} outcomes"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", vals)

    def _check_space(self, other: "RandomVariable") -> None:
        if not isinstance(other, RandomVariable):
            raise StructureError(f"expected a RandomVariable, got {other!r}")
        if other.space != self.space:
            raise StructureError("random variables live on different sample spaces")

    # --- vector space structure ------------------------------------------

    def __add__(self, other: "RandomVariable") -> "RandomVariable":
        self._check_space(other)
        return RandomVariable(self.space, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "RandomVariable") -> "RandomVariable":
        self._check_space(other)
        return RandomVariable(self.space, [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self) -> "RandomVariable":
        return RandomVariable(self.space, [-a for a in self.values])

    def scale(self, factor) -> "RandomVariable":
        f = as_fraction(factor)
        return RandomVariable(self.space, [f * a for a in self.values])

    __mul__ = scale
    __rmul__ = scale

    # --- lattice operations ----------------------------------------------

    def sup(self, other: "RandomVariable") -> "RandomVariable":
        """Componentwise maximum x ∨ y."""
        self._check_space(other)
        return RandomVariable(self.space, [max(a, b) for a, b in zip(self.values, other.values)])

    def inf(self, other: "RandomVariable") -> "RandomVariable":
        """Componentwise minimum x ∧ y."""
        self._check_space(other)
        return RandomVariable(self.space, [min(a, b) for a, b in zip(self.values, other.values)])

    def __abs__(self) -> "RandomVariable":
        return RandomVariable(self.space, [abs(a) for a in self.values])

    def pos_part(self) -> "RandomVariable":
        """x⁺ = x ∨ 0."""
        return RandomVariable(self.space, [max(a, 0) for a in self.values])

    def neg_part(self) -> "RandomVariable":
        """x⁻ = (−x) ∨ 0, so that x = x⁺ − x⁻ and |x| = x⁺ + x⁻."""
        return RandomVariable(self.space, [max(-a, 0) for a in self.values])

    # --- order predicates ---------------------------------------------------

    def __le__(self, other: "RandomVariable") -> bool:
        """Partial order: true iff every component is ≤ (a.s. order on finite Ω)."""
        self._check_space(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def __ge__(self, other: "RandomVariable") -> bool:
        self._check_space(other)
        return all(a >= b for a, b in zip(self.values, other.values))

    @property
    def is_nonneg(self) -> bool:
        return all(a.numerator >= 0 for a in self.values)

    @property
    def is_zero(self) -> bool:
        return not any(self.values)  # a Fraction is true by its numerator

    def __str__(self) -> str:
        pairs = ", ".join(f"{o}: {v}" for o, v in zip(self.space.outcomes, self.values))
        return f"({pairs})"
