"""Exact rational linear programming by two-phase primal simplex.

This is the single decision oracle behind every set-membership and
no-arbitrage question in the library, so it never rounds: all arithmetic is
exact, on a condensed fraction-free integer tableau (only the nonbasic
columns are stored; a free variable is one index and one column, stored as
x or as −x and negated when it enters the other way): rows, costs and signs
stay integers, and so does each returned vector, as integers over the
tableau's one denominator, its ``Fraction``s built only when they are read;
pivoting uses Bland's anti-cycling rule (lowest eligible index, ties by
lowest basic variable index), and every answer is certified: optimal
outcomes carry exact duals with zero duality gap, infeasible outcomes carry
a Farkas vector, unbounded outcomes carry a feasible point plus an
improving recession ray.  Identical inputs always produce identical
outcomes, including the chosen vertex.  The problems are tiny, a few rows
and variables each, so the fixed cost of a solve is kept to one pass:
``from_integers`` checks and reduces each row in one loop, the tableau is
set up in one pass over the rows, and phase one runs only when some row
starts on an artificial variable.
``solve`` returns the one outcome type, ``LpOutcome``.  ``feasible`` is the
bare phase-one predicate; a membership witness or Farkas vector comes from
``solve`` on the same problem with a zero objective, where phase two enters
no column and so returns what phase one found.

There is one LP form: maximize or minimize c·x subject to rows Ax {≤,=,≥} b,
with each variable nonnegative or free.  A bound x_j ≤ u is a row like any
other.  ``LpProblem`` stores each row one way, as its coefficients and rhs
in integers over one positive scale in lowest terms, the form the tableau
starts from, and its objective as integers over one denominator: a caller
holding integers hands them over with ``LpProblem.from_integers``, with
rows built from integer columns by ``rows_from_columns``, and one
holding rationals converts each row and the objective once in the
constructor.  ``LpOutcome`` is the same on the way out: it holds each
vector as integers over one denominator, which a route can check as they
are, and reads them back as ``Fraction``s on demand; its constructor takes
rationals and ``LpOutcome.from_integers`` the pairs.  Problems are dense
and desk-scale by design; there is no floating-point fast path and no
sparse machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import StructureError
from .rationals import as_fraction, as_fractions, dot, fractions_over, to_integers

LE = "<="
EQ = "=="
GE = ">="
_RELATIONS = (LE, EQ, GE)

MAXIMIZE = "max"
MINIMIZE = "min"

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LpProblem:
    """A dense exact LP: optimize c·x subject to Ax {≤,=,≥} b.

    Relations are ``"<="``, ``"=="`` or ``">="``.  Each variable is
    nonnegative, except those whose indices are in ``free``.
    Immutable after construction; solving shares no state between calls.

    Each row is stored one way, in ``int_rows``: a pair ``(ints, s)`` of its
    coefficients then its rhs as integers over one positive scale ``s``, in
    lowest terms (``gcd(s, *ints) == 1``), so ``s`` is the lcm of the row's
    and rhs's denominators and the tableau reads the row as it is.  The
    objective is stored the same way, in ``int_objective``: its
    coefficients as integers over one positive denominator, in lowest
    terms.  The constructor takes rationals and converts each row and the
    objective once; ``from_integers`` takes the pairs.  ``objective``,
    ``rows`` and ``rhs`` read them back as ``Fraction``s.
    """

    int_objective: tuple[tuple[int, ...], int]
    int_rows: tuple[tuple[tuple[int, ...], int], ...]
    relations: tuple[str, ...]
    free: frozenset[int]
    sense: str

    def __init__(self, objective, rows, relations, rhs, *,
                 free=(), sense: str = MAXIMIZE) -> None:
        rows = [as_fractions(row) for row in rows]
        rhs = as_fractions(rhs)
        if len(rhs) != len(rows):
            raise StructureError(f"{len(rows)} rows but {len(rhs)} rhs entries")
        int_rows = []
        for row, b in zip(rows, rhs):
            ints, s = to_integers([*row, b])
            int_rows.append((tuple(ints), s))
        ints, den = to_integers(as_fractions(objective))
        self._store((tuple(ints), den), int_rows, relations, free, sense)

    @classmethod
    def from_integers(cls, objective, rows, relations, *,
                      free=(), sense: str = MAXIMIZE) -> "LpProblem":
        """The LP with objective ``ints / s`` for the pair ``objective =
        (ints, s)``, and whose row i, given as the pair ``(ints, s)``, reads
        ``ints[:-1]·x / s {relation} ints[-1] / s``, each for an integer
        scale s > 0; each pair is divided by ``gcd(s, *ints)``."""
        int_rows = _lowest([*rows, objective])
        problem = cls.__new__(cls)
        problem._store(int_rows.pop(), int_rows, relations, free, sense)
        return problem

    def _store(self, int_objective, int_rows, relations, free, sense) -> None:
        """Check the shape and set every field, the one check of both
        entry points."""
        n = len(int_objective[0])
        int_rows, relations, free = tuple(int_rows), tuple(relations), tuple(free)
        m = len(int_rows)
        if len(relations) != m:
            raise StructureError(f"{m} rows but {len(relations)} relations")
        for row in int_rows:
            if len(row[0]) != n + 1:  # the first such row: an equal one would fail first
                raise StructureError(f"row {int_rows.index(row)} has {len(row[0]) - 1} "
                                     f"coefficients, expected {n}")
        if relations.count(LE) + relations.count(EQ) + relations.count(GE) != m:
            rel = next(rel for rel in relations if rel not in _RELATIONS)
            raise StructureError(f"unknown relation {rel!r}")
        for v in free:
            if type(v) is not int or not 0 <= v < n:
                raise StructureError(f"free variables must be indices in range({n})")
        if sense not in (MAXIMIZE, MINIMIZE):
            raise StructureError(f"sense must be {MAXIMIZE!r} or {MINIMIZE!r}")
        self.__dict__.update(int_objective=int_objective, int_rows=int_rows,
                             relations=relations, free=frozenset(free), sense=sense)

    @cached_property
    def objective(self) -> tuple[Fraction, ...]:
        """The objective's coefficients, as ``Fraction``s."""
        return fractions_over(*self.int_objective)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Each row's coefficients, as ``Fraction``s."""
        return tuple([fractions_over(ints[:-1], s) for ints, s in self.int_rows])

    @cached_property
    def rhs(self) -> tuple[Fraction, ...]:
        """Each row's rhs, as a ``Fraction``."""
        return tuple([Fraction(ints[-1], s) if ints[-1] else _ZERO for ints, s in self.int_rows])

    @property
    def num_vars(self) -> int:
        return len(self.int_objective[0])

    @property
    def num_rows(self) -> int:
        return len(self.int_rows)


@dataclass(frozen=True)
class LpOutcome:
    """Certified result of an exact solve.

    * ``OPTIMAL``: ``primal`` and ``objective_value`` are set; ``dual`` holds
      one multiplier per row, with ``objective_value == rhs·dual`` exactly.
    * ``UNBOUNDED``: ``primal`` is a feasible point and ``ray`` an exact
      recession direction with strictly improving objective.
    * ``INFEASIBLE``: ``dual`` is a Farkas certificate, one multiplier per row.

    Each vector is held as integers over one positive denominator:
    ``int_primal``, ``int_dual`` and ``int_ray`` are pairs ``(ints, den)``
    and ``int_value`` is the pair ``(n, den)`` of the objective value, each
    None where ``primal``, ``dual``, ``ray`` or ``objective_value`` is.
    ``solve`` leaves them unreduced, over the tableau's ``d`` (the duals
    and the value over ``d`` times the costs' denominator).  The fields
    read them back as ``Fraction``s, each built on its first read, so
    equality and ``repr`` compare and show rationals.  The constructor
    takes rationals, and so does ``dataclasses.replace``;
    ``from_integers`` takes the pairs.
    """

    status: str
    # each field is one of the cached properties below
    primal: Optional[tuple[Fraction, ...]]
    dual: Optional[tuple[Fraction, ...]]
    objective_value: Optional[Fraction]
    ray: Optional[tuple[Fraction, ...]]

    def __init__(self, status: str, primal=None, dual=None, objective_value=None,
                 ray=None) -> None:
        value = (None if objective_value is None
                 else as_fraction(objective_value).as_integer_ratio())
        self._store(status, _integers(primal), _integers(dual), value, _integers(ray))

    @classmethod
    def from_integers(cls, status: str, primal=None, dual=None, value=None,
                      ray=None) -> "LpOutcome":
        """The outcome whose vectors are the given ``(ints, den)`` pairs and
        whose objective value is the pair ``value = (n, den)``, each den > 0."""
        outcome = cls.__new__(cls)
        outcome._store(status, primal, dual, value, ray)
        return outcome

    def _store(self, status, primal, dual, value, ray) -> None:
        self.__dict__.update(status=status, int_primal=primal, int_dual=dual,
                             int_value=value, int_ray=ray)

    @cached_property
    def primal(self) -> Optional[tuple[Fraction, ...]]:
        return None if self.int_primal is None else fractions_over(*self.int_primal)

    @cached_property
    def dual(self) -> Optional[tuple[Fraction, ...]]:
        return None if self.int_dual is None else fractions_over(*self.int_dual)

    @cached_property
    def objective_value(self) -> Optional[Fraction]:
        return None if self.int_value is None else Fraction(*self.int_value)

    @cached_property
    def ray(self) -> Optional[tuple[Fraction, ...]]:
        return None if self.int_ray is None else fractions_over(*self.int_ray)


def _integers(values) -> Optional[tuple[tuple[int, ...], int]]:
    """Rationals as the pair ``(ints, den)`` of ``to_integers``; None stays None."""
    if values is None:
        return None
    ints, den = to_integers(as_fractions(values))
    return tuple(ints), den


def rows_from_columns(columns, b, den) -> list[tuple[list[int], int]]:
    """The rows of an LP whose columns are given as (integers, denominator)
    pairs and whose rhs is the integers ``b`` over ``den``: row j holds each
    column's j-th entry, then b[j], as integers over the lcm of all the
    denominators, with that lcm, for ``LpProblem.from_integers``."""
    s = lcm(den, *[d for _, d in columns])
    lifted = [[v * (s // d) for v in ints] for ints, d in columns]
    return [([*row, v], s) for *row, v in zip(*lifted, [v * (s // den) for v in b])]


def _lowest(pairs) -> list[tuple[tuple[int, ...], int]]:
    """Each pair ``(ints, s)``, for an integer scale s > 0, divided by
    ``gcd(s, *ints)``; a ``StructureError`` names pair i ``row i``, and the
    last one, given after the rows, ``objective``."""
    lowest = []
    for pair in pairs:
        try:
            ints, s = pair
        except (TypeError, ValueError):
            error = "is not an (integers, scale) pair"
            break
        if type(s) is not int or s <= 0:
            error = f"has scale {s!r}, expected an integer > 0"
            break
        try:
            g = gcd(s, *ints)
        except TypeError:
            error = "has an entry that is not an integer"
            break
        lowest.append((tuple(ints), s) if g == 1 else (tuple([a // g for a in ints]), s // g))
    else:
        return lowest
    i = len(lowest)  # the pair that failed
    what = "objective" if i == len(pairs) - 1 else f"row {i}"
    raise StructureError(f"{what} {error}")


class _Simplex:
    """Two-phase simplex on a condensed integer tableau over the
    standardized slack form.

    Variables are numbered: one per structural variable, one slack or
    surplus per inequality row, then one artificial per row that does not
    start on a slack.  ``T`` stores only the nonbasic columns, rhs last:
    ``nonbasic[j]`` names stored column ``j``'s variable and ``basis[r]``
    row ``r``'s, whose column is ``d·e_r`` and is not stored.  A free
    variable ``v`` is held as ``sign[v]·x_v ≥ 0``: ``_flip`` negates its
    column to enter it with z < 0.  Row ``r`` of ``T`` holds ``d`` times the
    rational tableau row under one positive common denominator ``d``, and
    ``z`` the running phase's reduced costs on the stored columns the same
    way, times the costs' common denominator ``cden``.  Each row starts on
    its slack or artificial, as its stored integers over its scale ``s``
    (``LpProblem.int_rows``), with a ``-1`` in its own surplus column;
    ``s`` scales that row's slack and artificial columns by ``col_scale``.
    Phase one's costs ``-1/s_i`` undo that scaling as ``-(L // s_i)`` over
    ``L = lcm(s)``, and phase two's are the objective's integers times
    ``sign``, negated for ``min``.  Positive row and column
    scalings keep every sign Bland's rule reads and every ratio order the
    ratio test reads, so the pivot path is that of the rational tableau.
    The ``min`` and row-flip signs fold into integer numerators, and each
    returned vector is its integers over ``d``, or over ``d·cden`` for the
    duals and the objective value: no ``Fraction`` is built.

    The set-up is one pass over the rows: each row's flip and its slack,
    surplus or artificial are decided together, and the surplus columns
    are padded in only when some row has one, so a problem whose rows all
    start on slacks copies each row once.  Phase one runs only when some
    row starts on an artificial.
    """

    def __init__(self, problem: LpProblem) -> None:
        n_struct = len(problem.int_objective[0])
        T: list[list[int]] = []
        flipped: list[bool] = []
        ident_col: list = []
        slack_scale: list[int] = []  # per slack or surplus column, in row order
        art_rows: list[int] = []     # per artificial column, its row
        art_scale: list[int] = []
        surplus: list[tuple[int, int]] = []  # (row, its surplus column)
        for k, ((ints, s), rel) in enumerate(zip(problem.int_rows, problem.relations)):
            # normalize rows to nonnegative rhs; also flip ≥ rows with zero rhs:
            # as ≤ rows they start on a slack basis, which keeps artificial
            # variables out of the hot paths
            if ints[-1] < 0 or (ints[-1] == 0 and rel == GE):
                T.append([-a for a in ints])
                flipped.append(True)
                on_slack = rel == GE
            else:
                T.append(list(ints))
                flipped.append(False)
                on_slack = rel == LE
            if on_slack:
                ident_col.append(n_struct + len(slack_scale))
                slack_scale.append(s)
                continue
            if rel != EQ:  # its surplus is stored, its artificial starts basic
                surplus.append((k, n_struct + len(slack_scale)))
                slack_scale.append(s)
            art_rows.append(k)
            art_scale.append(s)
            ident_col.append(None)
        # the artificials are numbered after every slack and surplus
        self.first_art = first_art = n_struct + len(slack_scale)
        for col, k in enumerate(art_rows, start=first_art):
            ident_col[k] = col

        # each row's integers, a -1 in its own surplus column, its rhs; its
        # slack or artificial starts basic, in a column scaled by the row's scale
        nonbasic = list(range(n_struct))
        if surplus:
            pad = [0] * len(surplus)
            for row in T:
                row[-1:-1] = pad
            for k, col in surplus:
                T[k][len(nonbasic)] = -1
                nonbasic.append(col)

        self.T = T
        self.d = 1
        self.basis = list(ident_col)
        self.nonbasic = nonbasic
        self.ident_col = ident_col
        self.col_scale = [1] * n_struct + slack_scale + art_scale
        self.flipped = flipped
        self.free = problem.free
        self.sign = [1] * n_struct
        self.n_struct = n_struct
        self.ncols = first_art + len(art_scale)

    def _objective_costs(self, problem: LpProblem) -> tuple[list[int], int]:
        """Phase two's (integer costs per variable, denominator)."""
        ints, den = problem.int_objective
        sense = -1 if problem.sense == MINIMIZE else 1
        costs = [sense * sign * c for c, sign in zip(ints, self.sign)]
        return costs + [0] * (self.ncols - self.n_struct), den

    # --- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, j: int) -> None:
        """Exchange row ``r``'s basic variable with stored column ``j``'s.

        Every other stored column takes the fraction-free step
        ``(p·a − f·q) // d`` (Edmonds 1967, Bareiss 1968), exact because
        every entry is a minor of the integer start tableau; column ``j``
        then holds the leaving variable, whose column was ``d·e_r``: ``d``
        in row ``r`` and ``−f`` in each other row and in ``z``, each times
        the pivot row's sign (the exchange of Avis's lrs, 2000).  A row
        with f = 0 only takes the factor p/d, so it stays as it is when
        p = d."""
        T, d = self.T, self.d
        prow = T[r]
        p = prow[j]
        sign = 1
        if p < 0:
            # the negated pivot row states the same equation and keeps d > 0
            prow = T[r] = [-q for q in prow]
            p, sign = -p, -1
        T.append(self.z)  # the reduced costs take the rows' step
        for i, row in enumerate(T):
            if i == r:
                continue
            f = row[j]
            if f:
                row = T[i] = [(p * a - f * q) // d for a, q in zip(row, prow)]
                row[j] = -sign * f
            elif p != d:
                T[i] = [p * a // d for a in row]
        self.z = T.pop()
        prow[j] = sign * d
        self.d = p
        self.basis[r], self.nonbasic[j] = self.nonbasic[j], self.basis[r]

    def _flip(self, j: int) -> None:
        """Turn stored column ``j``, a free variable's, from x to −x or back:
        negate it in every row, in ``z`` and in the running costs."""
        for row in self.T:
            row[j] = -row[j]
        self.z[j] = -self.z[j]
        v = self.nonbasic[j]
        self.costs[v] = -self.costs[v]
        self.sign[v] = -self.sign[v]

    def _run_phase(self, costs: tuple[list[int], int], entering_limit: int):
        """Bland's rule to optimality on costs given as (integers per
        variable, denominator); returns ('optimal', None) or ('unbounded',
        entering variable); a free variable's column with z < 0 enters
        flipped."""
        T, basis, nonbasic, free = self.T, self.basis, self.nonbasic, self.free
        ints, self.cden = costs
        self.costs = ints
        d = self.d
        z = [d * ints[v] for v in nonbasic] + [0]
        for r, var in enumerate(basis):
            cb = ints[var]
            if cb:
                z = [a - cb * t for a, t in zip(z, T[r])]
        self.z = z
        while True:
            z = self.z
            enter, var = -1, entering_limit
            for j, v in enumerate(nonbasic):
                if v < var:
                    c = z[j]
                    if c > 0 or (c < 0 and v in free):
                        enter, var = j, v
            if enter < 0:
                return OPTIMAL, None
            if z[enter] < 0:
                self._flip(enter)
            # min ratio rhs/t over t > 0, compared by cross-multiplication
            leave = -1
            for r, row in enumerate(T):
                t = row[enter]
                if t > 0:
                    if leave < 0:
                        leave, bt, bb = r, t, row[-1]
                        continue
                    lhs, rhs = row[-1] * bt, bb * t
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                        leave, bt, bb = r, t, row[-1]
            if leave < 0:
                return UNBOUNDED, var
            self._pivot(leave, enter)

    def _phase_one(self):
        """Feasibility phase; returns None when feasible, else Farkas data.
        It runs only when some row starts on an artificial."""
        if self.first_art == self.ncols:
            return None
        # artificial i costs -1/s_i: its column is scaled by s_i
        scales = self.col_scale[self.first_art:]
        den = lcm(*scales)
        costs = [0] * self.first_art + [-(den // s) for s in scales]
        status, _ = self._run_phase((costs, den), self.ncols)
        assert status == OPTIMAL  # phase one is always bounded by zero
        if self.z[-1] > 0:  # the phase-one optimum is negative
            return self._dual_values(False)
        self._drive_out_artificials()
        return None

    def _drive_out_artificials(self) -> None:
        """Pivot each basic artificial out on its row's lowest nonzero
        variable, a free one as +x; a redundant row has none, so it never
        leaves or moves, and its artificial stays basic at 0."""
        first_art, nonbasic = self.first_art, self.nonbasic
        for r, row in enumerate(self.T):
            if self.basis[r] >= first_art:
                enter, var = -1, first_art
                for j, v in enumerate(nonbasic):
                    if v < var and row[j] != 0:
                        enter, var = j, v
                if enter >= 0:
                    if var < self.n_struct and self.sign[var] < 0:
                        self._flip(enter)
                    self._pivot(r, enter)

    # --- extraction -------------------------------------------------------

    def _dual_values(self, negate: bool) -> tuple[tuple[int, ...], int]:
        """Multipliers for all problem rows, as integers over ``d·cden``, read
        off the reduced costs at each row's slack or artificial (0 while it
        is basic); ``negate`` (a ``min`` objective) and a flipped row each
        negate one."""
        z, d, costs, col_scale = self.z, self.d, self.costs, self.col_scale
        stored = dict(zip(self.nonbasic, range(len(self.nonbasic))))
        y = []
        for col, flip in zip(self.ident_col, self.flipped):
            j = stored.get(col)
            yk = col_scale[col] * (d * costs[col] - (0 if j is None else z[j]))
            y.append(-yk if flip != negate else yk)
        return tuple(y), d * self.cden

    def _structural_point(self) -> tuple[tuple[int, ...], int]:
        """Basic structural values, as integers over d."""
        xs = [0] * self.n_struct
        for row, col in zip(self.T, self.basis):
            if col < self.n_struct:
                xs[col] = self.sign[col] * row[-1]
        return tuple(xs), self.d

    def _ray(self, enter: int) -> tuple[tuple[int, ...], int]:
        """Recession direction of the entering variable, as integers over d;
        a slack column of a row scaled by s_k is s_k times the unscaled
        slack."""
        scale = self.col_scale[enter]
        j = self.nonbasic.index(enter)
        ray = [0] * self.n_struct
        if enter < self.n_struct:
            ray[enter] = self.sign[enter] * self.d
        for row, col in zip(self.T, self.basis):
            if col < self.n_struct:
                ray[col] = -self.sign[col] * row[j] * scale
        return tuple(ray), self.d


def solve(problem: LpProblem) -> LpOutcome:
    """Solve exactly; deterministic for a fixed input.  Builds no
    ``Fraction``: the outcome holds integers (``LpOutcome``)."""
    sx = _Simplex(problem)
    farkas = sx._phase_one()
    if farkas is not None:
        return LpOutcome.from_integers(INFEASIBLE, dual=farkas)

    status, enter = sx._run_phase(sx._objective_costs(problem), sx.first_art)
    if status == UNBOUNDED:
        return LpOutcome.from_integers(UNBOUNDED, primal=sx._structural_point(),
                                       ray=sx._ray(enter))

    minimize = problem.sense == MINIMIZE
    value = (sx.z[-1] if minimize else -sx.z[-1], sx.d * sx.cden)
    return LpOutcome.from_integers(OPTIMAL, primal=sx._structural_point(),
                                   dual=sx._dual_values(minimize), value=value)


def feasible(problem: LpProblem) -> bool:
    """Phase one alone: whether some point satisfies every row."""
    return _Simplex(problem)._phase_one() is None


# --- direct-substitution checks -------------------------------------------
#
# These re-derive every claim an LpOutcome makes from the problem data alone,
# so callers can re-verify witnesses without trusting the solver's path.
# Every row, objective and dual value is one ``rationals.dot``; a row is
# read as its stored integers, which are its scale s > 0 times the row, so
# a row compares ints·x with its integer rhs, and a multiplier y_i weighs
# the integers as y_i/s.

def _satisfies(problem: LpProblem, x, homogeneous: bool) -> bool:
    """Whether x is nonnegative off the free variables and meets every
    row, against its rhs or, if ``homogeneous``, against 0."""
    if len(x) != problem.num_vars:
        return False
    if any([v < 0 for j, v in enumerate(x) if j not in problem.free]):
        return False
    for (ints, _), rel in zip(problem.int_rows, problem.relations):
        lhs, b = dot(ints[:-1], x), 0 if homogeneous else ints[-1]
        if (lhs > b) if rel == LE else ((lhs < b) if rel == GE else (lhs != b)):
            return False
    return True


def is_feasible_point(problem: LpProblem, x: Sequence) -> bool:
    return _satisfies(problem, as_fractions(x), False)


def objective_value(problem: LpProblem, x: Sequence) -> Fraction:
    return dot(problem.objective, as_fractions(x))


def _dual_objective(problem: LpProblem, y, costs, sign: int) -> Optional[Fraction]:
    """rhs·y, when the row multipliers y are dual feasible against ``costs``;
    None otherwise.

    Dual feasible: y has ``sign``'s sign on ≤ rows and the opposite one on ≥
    rows, and each column's y·A_j equals costs_j on a free variable and lies
    on ``sign``'s side of costs_j on a nonnegative one.
    """
    if len(y) != problem.num_rows:
        return None
    for rel, yi in zip(problem.relations, y):
        if (rel == LE and sign * yi < 0) or (rel == GE and sign * yi > 0):
            return None
    scaled = [yi / s for yi, (_, s) in zip(y, problem.int_rows)]
    for j, c in enumerate(costs):
        slack = dot([ints[j] for ints, _ in problem.int_rows], scaled) - c
        if (slack != 0) if j in problem.free else (sign * slack < 0):
            return None
    return dot([ints[-1] for ints, _ in problem.int_rows], scaled)


def check_optimal(problem: LpProblem, outcome: LpOutcome) -> bool:
    """Primal feasibility, dual feasibility and a zero duality gap, exactly."""
    if outcome.status != OPTIMAL or not is_feasible_point(problem, outcome.primal):
        return False
    value = outcome.objective_value
    sign = 1 if problem.sense == MAXIMIZE else -1
    return (objective_value(problem, outcome.primal) == value
            and _dual_objective(problem, outcome.dual, problem.objective, sign) == value)


def check_farkas(problem: LpProblem, outcome: LpOutcome) -> bool:
    """Exact infeasibility proof: row multipliers no feasible point can satisfy."""
    if outcome.status != INFEASIBLE:
        return False
    total = _dual_objective(problem, outcome.dual, [_ZERO] * problem.num_vars, 1)
    return total is not None and total < 0


def check_ray(problem: LpProblem, outcome: LpOutcome) -> bool:
    """The ray is a recession direction from a feasible point, strictly
    improving: it satisfies the problem with every rhs set to 0 (the
    sign conditions are homogeneous already)."""
    if outcome.status != UNBOUNDED or outcome.ray is None or outcome.primal is None:
        return False
    if not is_feasible_point(problem, outcome.primal):
        return False
    if not _satisfies(problem, outcome.ray, True):
        return False
    gain = dot(problem.objective, outcome.ray)
    return gain > 0 if problem.sense == MAXIMIZE else gain < 0


_CHECKS = {OPTIMAL: check_optimal, UNBOUNDED: check_ray, INFEASIBLE: check_farkas}


def check_outcome(problem: LpProblem, outcome: LpOutcome) -> bool:
    """The exact re-substitution check for the outcome's status."""
    check = _CHECKS.get(outcome.status)
    return check is not None and check(problem, outcome)
