"""Polyhedral cones and semi-solid sets, with every decision made by LP.

Two finite generator representations cover all the set machinery this
library needs:

* ``PolyhedralCone`` is the conic hull of finitely many generators, plus
  the span of finitely many vectors, minus the nonnegative orthant,
  𝒦 − V₊: the set on which NA is stated.
* ``SemiSolidSet`` is the downward closure, within the nonnegative orthant,
  of all sub-convex combinations of finitely many nonnegative generators
  (``x ≥ 0`` with ``x ≤ Σ λ_g·g``, ``λ ≥ 0``, ``Σ λ_g ≤ 1``).  Such a set is
  convex and semi-solid, and its Minkowski gauge is computed exactly as the
  value of a small LP.

Both sets are closed polyhedra, so every infimum below is attained and the
boundary convention ``gauge(x) ≤ 1  ⟺  x ∈ B`` is exact.

Both sets hold their vectors as integers over one denominator each, and
every LP here is posed on those integers (``lp.LpProblem.from_integers``).
The gauge and the semi-solid membership are each solved as the LP dual of
the covering problem Σ λ_g·g ≥ x: one ``<=`` row per generator, every rhs
≥ 0, so the tableau starts on its slacks and needs no phase one.  Each of
their answers is certified by substitution on the outcome's integers
before it is returned, from the LP's primal, duals or ray, without
trusting ``lp``; a failed check, or a status the LP cannot have, raises
``InternalInconsistency`` carrying the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from . import lp
from .errors import InternalInconsistency, StructureError
from .lattice import RandomVariable, SampleSpace
from .rationals import as_fraction, fractions_over, to_integers

Gauge = Union[Fraction, float]  # exact value, or math.inf when nothing dominates x

_ZERO = Fraction(0)


@dataclass(frozen=True)
class PolyhedralCone:
    """Conic hull of ``generators``, plus the linear span of ``span``, minus
    the nonnegative orthant.

    The represented set is {Σ λ_g·g + Σ ν_h·h − w : λ ≥ 0, ν free, w ≥ 0},
    so it always contains −V₊.  ``span`` is a lineality part (Schrijver,
    *Theory of Linear and Integer Programming*, 1986, §8.2): each of its
    elements h stands for the generator pair h and −h, stated once.  Zero
    generators and zero span elements are legal and harmless.

    Each vector is held as integers over one positive denominator, a pair
    ``(ints, den)`` with one integer per outcome: ``int_generators`` and
    ``int_span``, which the separation LPs and their checks read.  The
    constructor takes ``RandomVariable``s and converts each once;
    ``from_integers`` takes the pairs, and ``generators`` and ``span`` then
    build the ``RandomVariable``s on their first read.
    """

    space: SampleSpace
    # each is a cached property below, or the constructor's own vectors
    generators: tuple[RandomVariable, ...]
    span: tuple[RandomVariable, ...]

    def __init__(self, space: SampleSpace, generators: Sequence[RandomVariable],
                 span: Sequence[RandomVariable] = ()) -> None:
        gens, span = tuple(generators), tuple(span)
        for g in (*gens, *span):
            if g.space != space:
                raise StructureError("cone generator on a different sample space")
        set_ = object.__setattr__
        set_(self, "space", space)
        set_(self, "generators", gens)
        set_(self, "span", span)
        set_(self, "int_generators", _integers(gens))
        set_(self, "int_span", _integers(span))

    @classmethod
    def from_integers(cls, space: SampleSpace, generators, span=()) -> "PolyhedralCone":
        """The cone whose generators and span elements are given as pairs
        ``(ints, den)``, one integer per outcome over an integer den > 0."""
        cone = cls.__new__(cls)
        gens, span = tuple(generators), tuple(span)
        for ints, den in (*gens, *span):
            if len(ints) != len(space) or type(den) is not int or den <= 0:
                raise StructureError("cone vector is not one integer per outcome "
                                     "over a positive integer denominator")
        set_ = object.__setattr__
        set_(cone, "space", space)
        set_(cone, "int_generators", gens)
        set_(cone, "int_span", span)
        return cone

    @cached_property
    def generators(self) -> tuple[RandomVariable, ...]:
        return tuple([RandomVariable(self.space, fractions_over(*g)) for g in self.int_generators])

    @cached_property
    def span(self) -> tuple[RandomVariable, ...]:
        return tuple([RandomVariable(self.space, fractions_over(*h)) for h in self.int_span])


@dataclass(frozen=True)
class SemiSolidSet:
    """Downward closure in V₊ of the sub-convex hull of nonnegative generators.

    Each generator is also held as integers over one positive denominator,
    in ``int_generators``: one pair ``(ints, den)`` per generator, as
    ``PolyhedralCone`` holds its vectors.  The gauge and membership LPs are
    posed, and their answers checked, on these integers."""

    space: SampleSpace
    generators: tuple[RandomVariable, ...]

    def __init__(self, space: SampleSpace, generators: Sequence[RandomVariable]) -> None:
        gens = tuple(generators)
        for g in gens:
            if g.space != space:
                raise StructureError("generator on a different sample space")
            if not g.is_nonneg:
                raise StructureError("semi-solid sets require nonnegative generators")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "int_generators", _integers(gens))


def _integers(vectors) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each vector's values as the pair ``(ints, den)`` of ``to_integers``."""
    return tuple([to_integers(v.values) for v in vectors])


def _check_space(container, x: RandomVariable) -> None:
    if x.space != container.space:
        raise StructureError("point lives on a different sample space")


def cone_member(cone: PolyhedralCone, x: RandomVariable) -> bool:
    """Decide x = Σ λ_g·g + Σ ν_h·h − w with λ ≥ 0, ν free and w ≥ 0, that
    is Σ λ_g·g + Σ ν_h·h ≥ x: one column per generator and one free column
    per span element, each row on the cone's integers and x's."""
    _check_space(cone, x)
    columns = (*cone.int_generators, *cone.int_span)
    rows = lp.rows_from_columns(columns, *to_integers(x.values))
    problem = lp.LpProblem.from_integers(([0] * len(columns), 1), rows, [">="] * len(rows),
                                         free=range(len(cone.int_generators), len(columns)))
    return lp.feasible(problem)


def capped(gens, y, cap: int) -> bool:
    """Whether y ≥ 0 and g·y ≤ cap/d for every generator g, for y and cap
    integers over one d > 0: with g's integers over its den, each is one
    integer sum over y's nonzero entries, ints·y ≤ den·cap."""
    if any([v < 0 for v in y]):
        return False
    held = [(i, v) for i, v in enumerate(y) if v]
    return all([sum([ints[i] * v for i, v in held]) <= den * cap for ints, den in gens])


def covers(gens, lam, ld: int, xints, xden: int) -> bool:
    """Whether the multipliers λ, integers over ``ld`` > 0, one per vector
    g of ``gens``, have Σ λ_g·g ≥ x on every outcome, for x's integers over
    ``xden``.  The callers check λ's signs: with λ ≥ 0, x lies in (Σλ)·B
    for a set's generators, and with λ ≥ 0 on a cone's generators and
    free on its span, x lies in the cone.  Over the lcm L of the vectors'
    denominators, each outcome is one integer sum,
    Σ_g λ_g·g_ω·(L/den_g)·xden ≥ x_ω·ld·L."""
    if len(lam) != len(gens):
        return False
    big = math.lcm(*[den for _, den in gens])
    weighted = [(v * (big // den) * xden, ints) for v, (ints, den) in zip(lam, gens) if v]
    return all([sum([w * ints[i] for w, ints in weighted]) >= x * ld * big
                for i, x in enumerate(xints)])


def semisolid_member(bset: SemiSolidSet, x: RandomVariable, scale=1) -> bool:
    """Decide x ∈ scale·B: x ≥ 0 and x ≤ Σ λ_g·g with λ ≥ 0, Σ λ_g ≤ scale.

    For x ≥ 0 this is the LP dual of maximize x·y − scale·μ over y ≥ 0,
    μ ≥ 0 subject to g·y ≤ μ for every generator g, whose rows all have
    rhs 0, so it starts on its slacks.  The LP is homogeneous, so its
    optimum is 0, exactly when x ∈ scale·B, or it is unbounded; y = 0,
    μ = 0 is feasible, so an infeasible outcome raises.  Either answer is
    certified on the outcome's integers:

    * at optimum 0, the row duals λ are a membership witness: λ ≥ 0,
      Σ λ_g·g ≥ x (``covers``) and Σ λ ≤ scale;
    * when unbounded, the ray (y, μ) is a Farkas certificate: y ≥ 0, μ ≥ 0,
      g·y ≤ μ for every g (``capped``) and x·y > scale·μ, while every
      λ ≥ 0 with Σ λ_g·g ≥ x and Σ λ ≤ scale would give
      x·y ≤ Σ λ_g·(g·y) ≤ scale·μ.

    Otherwise ``InternalInconsistency``, carrying ``bset``, x, the scale and
    the outcome.
    """
    _check_space(bset, x)
    scale = as_fraction(scale)
    if scale <= 0:
        raise StructureError("scale must be > 0")
    if not x.is_nonneg:
        return False
    gens = bset.int_generators
    xints, xden = to_integers(x.values)
    sn, sd = scale.as_integer_ratio()
    big = math.lcm(xden, sd)
    objective = ([v * (big // xden) for v in xints] + [-sn * (big // sd)], big)
    rows = [([*ints, -den, 0], den) for ints, den in gens]  # g·y − μ ≤ 0, times den
    outcome = lp.solve(lp.LpProblem.from_integers(objective, rows, ["<="] * len(rows)))
    data = dict(bset=bset, x=x, scale=scale, outcome=outcome)
    if outcome.status == lp.INFEASIBLE:
        raise InternalInconsistency("membership LP cannot be infeasible", **data)
    if outcome.status == lp.OPTIMAL:
        lam, ld = outcome.int_dual
        # Σλ/ld ≤ sn/sd
        if (outcome.int_value[0] == 0 and all([v >= 0 for v in lam])
                and covers(gens, lam, ld, xints, xden) and sum(lam) * sd <= sn * ld):
            return True
    else:
        (*y, mu), _ = outcome.int_ray
        # x·y/xden > s·μ, over the ray's denominator
        if (len(y) == len(xints) and mu >= 0 and capped(gens, y, mu)
                and sum([a * v for a, v in zip(xints, y)]) * sd > sn * mu * xden):
            return False
    raise InternalInconsistency("semi-solid membership failed re-verification", **data)


def minkowski(bset: SemiSolidSet, x: RandomVariable) -> Gauge:
    """Gauge of B at x: the least α ≥ 0 with x ∈ αB, or +inf when there is none.

    The least α is min Σ λ_g subject to Σ λ_g·g ≥ x, λ ≥ 0, attained
    because B is a closed polyhedron; read as the minimal superreplication
    price of x out of the budget set B.  For x ≥ 0 it is solved as its LP
    dual: maximize x·y over y ≥ 0 subject to g·y ≤ 1 for every generator g.
    Every row has rhs 1, so the LP starts on its slacks, and y = 0 is
    feasible, so an infeasible outcome raises.  Either answer is certified
    on the outcome's integers:

    * at an optimum v, the primal y is ≥ 0 with g·y ≤ 1 for every g
      (``capped``) and x·y = v, so by weak duality every α with x ∈ αB is
      ≥ v; the row duals λ are ≥ 0 with Σ λ_g·g ≥ x (``covers``) and
      Σ λ = v, so x ∈ v·B, and the gauge is v;
    * when unbounded, the ray r is ≥ 0 with g·r ≤ 0 for every g and
      x·r > 0, while every λ ≥ 0 with Σ λ_g·g ≥ x would give
      x·r ≤ Σ λ_g·(g·r) ≤ 0: no α has x ∈ αB, and the gauge is +inf.

    Otherwise ``InternalInconsistency``, carrying ``bset``, x and the
    outcome.
    """
    _check_space(bset, x)
    if not x.is_nonneg:
        return math.inf
    gens = bset.int_generators
    xints, xden = to_integers(x.values)
    rows = [([*ints, den], den) for ints, den in gens]  # g·y ≤ 1, times den
    outcome = lp.solve(lp.LpProblem.from_integers((xints, xden), rows, ["<="] * len(rows)))
    data = dict(bset=bset, x=x, outcome=outcome)
    if outcome.status == lp.INFEASIBLE:
        raise InternalInconsistency("gauge LP cannot be infeasible", **data)
    if outcome.status == lp.OPTIMAL:
        (y, d), (lam, ld), (on, od) = outcome.int_primal, outcome.int_dual, outcome.int_value
        # x·y/(xden·d) = on/od and Σλ/ld = on/od
        if (len(y) == len(xints) and capped(gens, y, d)
                and sum([a * v for a, v in zip(xints, y)]) * od == on * xden * d
                and all([v >= 0 for v in lam]) and covers(gens, lam, ld, xints, xden)
                and sum(lam) * od == on * ld):
            return Fraction(on, od)
    else:
        r, _ = outcome.int_ray
        if (len(r) == len(xints) and capped(gens, r, 0)
                and sum([a * v for a, v in zip(xints, r)]) > 0):
            return math.inf
    raise InternalInconsistency("gauge failed re-verification", **data)


def sup_norm(bset: SemiSolidSet) -> Fraction:
    """Exact sup of the ℓ∞ norm over B, attained at a generator (see
    ``sup_squared_norm``); finitely many generators always bound B."""
    return max((max(g.values, default=_ZERO) for g in bset.generators), default=_ZERO)


def sup_squared_norm(bset: SemiSolidSet) -> Fraction:
    """Exact sup of Σ x_ω² over B.

    For 0 ≤ x ≤ Σ λ_g·g with Σ λ ≤ 1 the Euclidean norm is dominated by
    max_g ‖g‖, and each generator is itself a member, so the sup is the
    largest generator norm (attained at a vertex).
    """
    return max([Fraction(sum([v * v for v in ints]), den * den)
                for ints, den in bset.int_generators], default=_ZERO)


def zero_set_trivial(bset: SemiSolidSet) -> bool:
    """True iff the gauge is positive on every nonzero nonnegative point.

    By monotonicity and homogeneity of the gauge it is enough to check the
    outcome indicators; equivalently ⋂_{α>0} αB = {0}.
    """
    return all(minkowski(bset, e) > 0 for e in bset.space.indicators())
