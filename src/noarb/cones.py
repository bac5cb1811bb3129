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
from .rationals import as_fraction, dot, fractions_over, to_integers

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
        for name, vectors in (("int_generators", gens), ("int_span", span)):
            pairs = [to_integers(v.values) for v in vectors]
            set_(self, name, tuple([(tuple(ints), den) for ints, den in pairs]))

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
    """Downward closure in V₊ of the sub-convex hull of nonnegative generators."""

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


def _check_space(container, x: RandomVariable) -> None:
    if x.space != container.space:
        raise StructureError("point lives on a different sample space")


def cone_member(cone: PolyhedralCone, x: RandomVariable) -> bool:
    """Decide x = Σ λ_g·g + Σ ν_h·h − w with λ ≥ 0, ν free and w ≥ 0, that
    is Σ λ_g·g + Σ ν_h·h ≥ x: one column per generator and one free column
    per span element."""
    _check_space(cone, x)
    vectors = (*cone.generators, *cone.span)
    rows = [[v.values[i] for v in vectors] for i in range(len(cone.space))]
    problem = lp.LpProblem([0] * len(vectors), rows, [">="] * len(rows), list(x.values),
                           free=range(len(cone.generators), len(vectors)))
    return lp.feasible(problem)


def semisolid_member(bset: SemiSolidSet, x: RandomVariable, scale=1) -> bool:
    """Decide x ∈ scale·B: x ≥ 0 and x ≤ Σ λ_g·g with λ ≥ 0, Σ λ_g ≤ scale."""
    _check_space(bset, x)
    scale = as_fraction(scale)
    if scale <= 0:
        raise StructureError("scale must be > 0")
    if not x.is_nonneg:
        return False
    gens = bset.generators
    n = len(bset.space)
    rows = [[g.values[i] for g in gens] for i in range(n)]
    rows.append([Fraction(1)] * len(gens))
    rels = [">="] * n + ["<="]
    rhs = list(x.values) + [scale]
    problem = lp.LpProblem([0] * len(gens), rows, rels, rhs)
    return lp.feasible(problem)


def minkowski(bset: SemiSolidSet, x: RandomVariable) -> Gauge:
    """Gauge of B at x: the least α ≥ 0 with x ∈ αB, or +inf when there is none.

    Computed as min Σ λ_g subject to 0 ≤ x ≤ Σ λ_g·g, λ ≥ 0; the minimum is
    attained because B is a closed polyhedron (never unbounded: Σ λ ≥ 0).
    Read as the minimal superreplication price of x out of the budget set B.
    """
    _check_space(bset, x)
    if not x.is_nonneg:
        return math.inf
    gens = bset.generators
    n = len(bset.space)
    rows = [[g.values[i] for g in gens] for i in range(n)]
    problem = lp.LpProblem([1] * len(gens), rows, [">="] * n, list(x.values), sense="min")
    outcome = lp.solve(problem)
    if outcome.status == lp.UNBOUNDED:  # min Σ λ over λ ≥ 0
        raise InternalInconsistency("gauge LP cannot be unbounded",
                                    bset=bset, x=x, outcome=outcome)
    if outcome.status != lp.OPTIMAL:
        return math.inf
    return outcome.objective_value


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
    best = _ZERO
    for g in bset.generators:
        best = max(best, dot(g.values, g.values))
    return best


def zero_set_trivial(bset: SemiSolidSet) -> bool:
    """True iff the gauge is positive on every nonzero nonnegative point.

    By monotonicity and homogeneity of the gauge it is enough to check the
    outcome indicators; equivalently ⋂_{α>0} αB = {0}.
    """
    return all(minkowski(bset, e) > 0 for e in bset.space.indicators())
