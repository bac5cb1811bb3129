"""Constructive separating functionals for polyhedral payoff cones.

On a finite outcome space every linear functional is a coefficient vector,
so separation becomes a small LP: find nonnegative coefficients that are
nonpositive on every cone generator yet positive at a target.  A strictly
positive separator is assembled the same way a countable dense family would
be in general spaces: separate each outcome indicator, normalize, average.
When only its existence matters, one separator that is positive at several
outcomes stands in for all of them (exhaustion).  All certificates are
re-verified by exact substitution before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import lp
from .cones import PolyhedralCone
from .errors import ContractViolation, InternalInconsistency, StructureError
from .lattice import RandomVariable, SampleSpace
from .market import Measure
from .rationals import as_fractions, dot

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Functional:
    """Element of the dual space: acts on x as Σ_ω coefficients_ω · x_ω."""

    space: SampleSpace
    coefficients: tuple[Fraction, ...]

    def __init__(self, space: SampleSpace, coefficients) -> None:
        coeffs = as_fractions(coefficients)
        if len(coeffs) != len(space):
            raise StructureError("one coefficient per outcome required")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x: RandomVariable) -> Fraction:
        if x.space != self.space:
            raise StructureError("argument on a different sample space")
        return dot(self.coefficients, x.values)

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coefficients)

    @property
    def is_strictly_positive(self) -> bool:
        return all(c > 0 for c in self.coefficients)

    def l1_norm(self) -> Fraction:
        return sum((abs(c) for c in self.coefficients), _ZERO)


@dataclass(frozen=True)
class StrictSeparation:
    """A strictly positive separator, or else an indicator inside the cone."""

    functional: Optional[Functional] = None
    violating: Optional[RandomVariable] = None


def _require_widened(cone: PolyhedralCone) -> None:
    if not cone.includes_neg_orthant:
        raise StructureError(
            "separation requires a cone that already contains the negative orthant")


def _is_separating(cone: PolyhedralCone, functional: Functional) -> bool:
    return functional.is_positive and all(functional(g) <= 0 for g in cone.generators)


def separate_at(cone: PolyhedralCone, target: RandomVariable) -> Optional[Functional]:
    """A positive functional vanishing-or-negative on the cone and equal to 1
    at the target, or None exactly when the target lies in the (closed) cone.

    Positivity comes for free because the cone contains −V₊, but it is
    enforced as a variable bound and re-checked on the way out.
    """
    _require_widened(cone)
    if target.space != cone.space:
        raise StructureError("target on a different sample space")
    if not target.is_nonneg or target.is_zero:
        raise ContractViolation("separation target must be nonnegative and nonzero")
    n = len(cone.space)
    rows = [list(g.values) for g in cone.generators]
    rels = ["<="] * len(rows)
    rhs = [_ZERO] * len(rows)
    rows.append(list(target.values))
    rels.append("<=")
    rhs.append(_ONE)
    problem = lp.LpProblem(list(target.values), rows, rels, rhs)
    outcome = lp.solve(problem)
    if outcome.status != lp.OPTIMAL:
        raise InternalInconsistency("separation LP must have optimum 0 or 1",
                                    cone=cone, target=target, outcome=outcome)
    if outcome.objective_value == 0:
        return None
    if outcome.objective_value != 1:
        raise InternalInconsistency("separation LP produced a value other than 0 or 1",
                                    cone=cone, target=target, outcome=outcome)
    functional = Functional(cone.space, outcome.primal)
    if not _is_separating(cone, functional) or functional(target) != 1:
        raise InternalInconsistency("separator failed re-verification",
                                    cone=cone, target=target, functional=functional)
    return functional


def strict_separator(cone: PolyhedralCone) -> StrictSeparation:
    """A strictly positive separating functional, or a violating direction.

    Separates every outcome indicator, rescales each separator to unit ℓ¹
    norm, and averages: the average stays nonpositive on all generators by
    convexity and is positive in every coordinate because the ω-th summand
    is.  The first indicator that cannot be separated is returned as the
    violating direction (it lies inside the cone).
    """
    _require_widened(cone)
    parts = []
    for e in cone.space.indicators():
        functional = separate_at(cone, e)
        if functional is None:
            return StrictSeparation(violating=e)
        parts.append(functional)
    return StrictSeparation(functional=_verified_average(cone, parts))


def strict_separator_exists(cone: PolyhedralCone) -> bool:
    """Whether ``strict_separator`` finds a functional, decided by exhaustion.

    A separator f of one indicator that is positive at ω′ separates 1_ω′
    too, once divided by f(1_ω′): the exhaustion step of the Halmos–Savage
    lemma and of the Kreps–Yan theorem.  So only the outcomes on which no
    earlier separator is positive get an LP of their own, and the average of
    the ℓ¹-normalised separators used is checked to be strictly positive and
    separating, as ``strict_separator`` checks its average.
    """
    _require_widened(cone)
    parts: list[Functional] = []
    for i, e in enumerate(cone.space.indicators()):
        if any(f.coefficients[i] > 0 for f in parts):
            continue
        functional = separate_at(cone, e)
        if functional is None:
            return False
        parts.append(functional)
    _verified_average(cone, parts)
    return True


def _verified_average(cone: PolyhedralCone, parts: list[Functional]) -> Functional:
    """The average of ``parts``, each rescaled to unit ℓ¹ norm, checked to be
    strictly positive and nonpositive on every generator."""
    weights = [_ONE / (f.l1_norm() * len(parts)) for f in parts]
    avg = [dot(weights, column) for column in zip(*[f.coefficients for f in parts])]
    functional = Functional(cone.space, avg)
    if not functional.is_strictly_positive or not _is_separating(cone, functional):
        raise InternalInconsistency("averaged separator failed re-verification",
                                    cone=cone, functional=functional)
    return functional


def functional_to_measure(functional: Functional) -> tuple[Measure, Fraction]:
    """Represent a strictly positive functional as c·E_Q, with Q a probability
    measure of full support: q_ω = coeff_ω / Σ coeff and c = Σ coeff."""
    if not functional.is_strictly_positive:
        raise ContractViolation("only strictly positive functionals induce equivalent measures")
    total = sum(functional.coefficients, _ZERO)
    measure = Measure(functional.space, [c / total for c in functional.coefficients])
    return measure, total
