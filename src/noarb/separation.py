"""Constructive separators for polyhedral payoff cones.

On a finite outcome space the dual of V is V itself, so a separating
functional is a vector acting by the dot product, and separation becomes a
small LP: find nonnegative coefficients that are nonpositive on every cone
generator and zero on its span, yet positive at a target.  A strictly
positive separator, scaled to unit mass, is an equivalent probability
measure; it is assembled the way a countable dense family would be in
general spaces: separate each outcome indicator, normalize, average.  When
only its existence matters, one separator that is positive at several
outcomes stands in for all of them (exhaustion).  All certificates are
re-verified by exact substitution before being returned, with the cone
checks of ``cones`` (``capped`` and ``covers``).  Each check is an integer
sum: the cone's vectors are integers over one denominator each
(``PolyhedralCone.int_generators`` and ``int_span``), as are the LP's
primal and duals (``lp.LpOutcome``) and each separator's mass, so a
``Fraction`` is built only for a separator or a measure that is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

from . import lp
from .cones import PolyhedralCone, capped, covers
from .errors import InternalInconsistency, StructureError
from .lattice import Measure, RandomVariable
from .rationals import fractions_over, to_integers


@dataclass(frozen=True)
class StrictSeparation:
    """A separating equivalent measure, or else an indicator inside the cone."""

    measure: Optional[Measure] = None
    violating: Optional[RandomVariable] = None


def _is_separating(cone: PolyhedralCone, f) -> bool:
    """f ≥ 0, f·g ≤ 0 on every generator (``capped`` at 0) and f·h = 0 on
    every span element, for f given as integers over a positive
    denominator, which no sign reads."""
    return (capped(cone.int_generators, f, 0)
            and not any([sum([a * b for a, b in zip(f, h)]) for h, _ in cone.int_span]))


def separate_at(cone: PolyhedralCone, target: RandomVariable) -> Optional[RandomVariable]:
    """The coefficients of a positive functional vanishing-or-negative on the
    cone and equal to 1 at the target, or None exactly when the target lies
    in the (closed) cone.

    The LP maximizes f·target over f ≥ 0 subject to f·g ≤ 0 for each
    generator g, the two rows h·f ≤ 0 and −h·f ≤ 0 for each span element h,
    and f·target ≤ 1; each row is handed to ``lp`` as the cone's integers, a
    span element's pair negated in integers.  Positivity comes for free because
    the cone contains −V₊, but the LP's variables are nonnegative too, and it
    is re-checked on the way out, with f·h = 0 on the span.  A None is checked
    too: at optimum 0 the generator rows' duals μ are ≥ 0 and, with each
    span pair's μ⁺ − μ⁻ as a free ν, satisfy Σ_g μ_g·g + Σ_h ν_h·h ≥ target
    (``covers``): the target is that cone point minus a nonnegative
    vector, so it lies in the cone.
    """
    if target.space != cone.space:
        raise StructureError("target on a different sample space")
    if not target.is_nonneg or target.is_zero:
        raise StructureError("separation target must be nonnegative and nonzero")
    rows = [([*ints, 0], s) for ints, s in cone.int_generators]
    for ints, s in cone.int_span:
        rows.append(([*ints, 0], s))
        rows.append(([-a for a in ints] + [0], s))
    t, tden = to_integers(target.values)
    rows.append(([*t, tden], tden))  # f·target ≤ 1
    problem = lp.LpProblem.from_integers((t, tden), rows, ["<="] * len(rows))
    outcome = lp.solve(problem)
    if outcome.status != lp.OPTIMAL:
        raise InternalInconsistency("separation LP must have optimum 0 or 1",
                                    cone=cone, target=target, outcome=outcome)
    value, vden = outcome.int_value
    if value == 0:
        multipliers, den = outcome.int_dual
        k = len(cone.int_generators)
        mu, pairs = multipliers[:k], multipliers[k:-1]
        nu = [plus - minus for plus, minus in zip(pairs[::2], pairs[1::2])]
        if (any([m < 0 for m in mu])
                or not covers((*cone.int_generators, *cone.int_span), [*mu, *nu], den, t, tden)):
            raise InternalInconsistency("dominating cone point failed re-verification",
                                        cone=cone, target=target, outcome=outcome)
        return None
    if value != vden:
        raise InternalInconsistency("separation LP produced a value other than 0 or 1",
                                    cone=cone, target=target, outcome=outcome)
    separator = RandomVariable(cone.space, outcome.primal)
    f, fden = outcome.int_primal
    # f·target = 1
    if not _is_separating(cone, f) or sum([a * b for a, b in zip(f, t)]) != fden * tden:
        raise InternalInconsistency("separator failed re-verification",
                                    cone=cone, target=target, separator=separator)
    return separator


def strict_separator(cone: PolyhedralCone) -> StrictSeparation:
    """An equivalent measure that is nonpositive on the cone, or a violating
    direction.

    Separates every outcome indicator, scales each separator to unit mass,
    and averages: the average stays nonpositive on all generators and zero
    on the span by convexity, and is positive in every coordinate because
    the ω-th summand is.  The first indicator that cannot be separated is returned as the
    violating direction (it lies inside the cone).
    """
    parts = []
    for e in cone.space.indicators():
        separator = separate_at(cone, e)
        if separator is None:
            return StrictSeparation(violating=e)
        parts.append(separator)
    return StrictSeparation(measure=_verified_average(cone, parts))


def strict_separator_exists(cone: PolyhedralCone) -> bool:
    """Whether ``strict_separator`` finds a measure, decided by exhaustion.

    A separator f of one indicator that is positive at ω′ separates 1_ω′
    too, once divided by f(1_ω′): the exhaustion step of the Halmos–Savage
    lemma and of the Kreps–Yan theorem.  So only the outcomes on which no
    earlier separator is positive get an LP of their own, and the average of
    the separators used, each scaled to unit mass, is checked to be
    equivalent and separating, as ``strict_separator`` checks its average.
    An outcome's indicator is built only when it gets an LP.
    """
    parts: list[RandomVariable] = []
    space = cone.space
    for i, outcome in enumerate(space.outcomes):
        if any(f.values[i] > 0 for f in parts):
            continue
        separator = separate_at(cone, space.indicator(outcome))
        if separator is None:
            return False
        parts.append(separator)
    _verified_average(cone, parts)
    return True


def _verified_average(cone: PolyhedralCone, parts: list[RandomVariable]) -> Measure:
    """The average of ``parts``, each divided by its sum (its ℓ¹ norm, as each
    part is nonnegative), checked to be equivalent and separating.  A part
    f = ints/den over its mass sum(ints)/den is ints/sum(ints), so the
    average is Σ_f ints·(L/sum(ints)) over k·L, for the k parts and L the
    lcm of their sums: one integer sum per outcome."""
    ints = [to_integers(f.values)[0] for f in parts]
    masses = [sum(v) for v in ints]
    big = lcm(*masses)
    avg = [sum(column) for column in zip(*[[a * (big // m) for a in v]
                                           for v, m in zip(ints, masses)])]
    measure = Measure(cone.space, fractions_over(avg, len(parts) * big))
    if not measure.is_equivalent or not _is_separating(cone, avg):
        raise InternalInconsistency("averaged separator failed re-verification",
                                    cone=cone, measure=measure)
    return measure
