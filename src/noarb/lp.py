"""Exact rational linear programming by two-phase primal simplex.

This is the single decision oracle behind every set-membership and
no-arbitrage question in the library, so it never rounds: all arithmetic is
exact, on a fraction-free integer tableau: rows, costs and signs stay
integers, and each returned number is one ``Fraction``; pivoting uses Bland's
anti-cycling rule (lowest eligible index, ties by lowest basic variable
index), and every answer is certified: optimal outcomes carry exact duals
with zero duality gap, infeasible outcomes carry a Farkas vector, unbounded
outcomes carry a feasible point plus an improving recession ray.  Identical
inputs always produce identical outcomes, including the chosen vertex.
``solve`` returns the one outcome type, ``LpOutcome``.  ``feasible`` is the
bare phase-one predicate; a membership witness or Farkas vector comes from
``solve`` on the same problem with a zero objective, where phase two enters
no column and so returns what phase one found.

There is one LP form: maximize or minimize c·x subject to rows Ax {≤,=,≥} b,
with each variable nonnegative or free.  A bound x_j ≤ u is a row like any
other.  Problems are dense and desk-scale by design; there is no
floating-point fast path and no sparse machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import StructureError
from .rationals import as_fraction, as_fractions, dot, to_integers

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
    nonnegative (lower bound 0, the default) or free (``None``).
    Immutable after construction; solving shares no state between calls.
    """

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    relations: tuple[str, ...]
    rhs: tuple[Fraction, ...]
    lower: tuple[Optional[Fraction], ...]
    sense: str

    def __init__(self, objective, rows, relations, rhs, *,
                 lower=None, sense: str = MAXIMIZE) -> None:
        set_ = object.__setattr__
        set_(self, "objective", as_fractions(objective))
        n = len(self.objective)
        set_(self, "rows", tuple([as_fractions(row) for row in rows]))
        set_(self, "relations", tuple(relations))
        set_(self, "rhs", as_fractions(rhs))
        m = len(self.rows)
        if len(self.relations) != m or len(self.rhs) != m:
            raise StructureError(
                f"{m} rows but {len(self.relations)} relations and {len(self.rhs)} rhs entries"
            )
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise StructureError(f"row {i} has {len(row)} coefficients, expected {n}")
        for rel in self.relations:
            if rel not in _RELATIONS:
                raise StructureError(f"unknown relation {rel!r}")
        if lower is None:
            lower = [_ZERO] * n
        set_(self, "lower", tuple([None if lo is None else as_fraction(lo) for lo in lower]))
        if len(self.lower) != n:
            raise StructureError("the lower bounds must have one entry per variable")
        for lo in self.lower:
            if lo is not None and lo != 0:
                raise StructureError("lower bounds are restricted to 0 or None (free)")
        if sense not in (MAXIMIZE, MINIMIZE):
            raise StructureError(f"sense must be {MAXIMIZE!r} or {MINIMIZE!r}")
        set_(self, "sense", sense)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class LpOutcome:
    """Certified result of an exact solve.

    * ``OPTIMAL``: ``primal`` and ``objective_value`` are set; ``dual`` holds
      one multiplier per row, with ``objective_value == rhs·dual`` exactly.
    * ``UNBOUNDED``: ``primal`` is a feasible point and ``ray`` an exact
      recession direction with strictly improving objective.
    * ``INFEASIBLE``: ``dual`` is a Farkas certificate, one multiplier per row.
    """

    status: str
    primal: Optional[tuple[Fraction, ...]] = None
    dual: Optional[tuple[Fraction, ...]] = None
    objective_value: Optional[Fraction] = None
    ray: Optional[tuple[Fraction, ...]] = None


class _Simplex:
    """Two-phase tableau simplex over the standardized split/slack form.

    The tableau is integer: row ``r`` of ``T`` holds ``d`` times the rational
    tableau row, rhs last, under one positive common denominator ``d``, and
    ``z`` holds the reduced-cost row of the running phase the same way, times
    the costs' common denominator ``cden``.  Each tableau row starts as the
    problem row and its rhs as integers over the lcm ``s`` of their
    denominators, which scales that row's slack and artificial columns by
    ``col_scale``; phase one's costs ``-1/s_i`` undo that scaling as
    ``-(L // s_i)`` over ``L = lcm(s)``, and phase two's are the objective's
    integers, negated for ``min``.  A pivot is the fraction-free step
    ``(p·a − f·q) // d`` (Edmonds 1967, Bareiss 1968), exact because every
    entry is a minor of the integer start tableau.  Positive row and column
    scalings keep every sign Bland's rule reads and every ratio order the
    ratio test reads, so the pivot path is that of the rational tableau.
    The ``min`` and row-flip signs fold into integer numerators, and each
    returned number is built as one ``Fraction`` on the way out.
    """

    def __init__(self, problem: LpProblem) -> None:
        n, m = problem.num_vars, problem.num_rows
        # each row and its rhs as integers over the lcm s of their denominators
        int_rows = [to_integers([*row, b]) for row, b in zip(problem.rows, problem.rhs)]

        # split free variables into differences of nonnegative columns
        col_pairs: list[tuple[int, Optional[int]]] = []
        ncols = 0
        for j in range(n):
            if problem.lower[j] is None:
                col_pairs.append((ncols, ncols + 1))
                ncols += 2
            else:
                col_pairs.append((ncols, None))
                ncols += 1
        self.col_pairs = col_pairs
        n_struct = ncols

        # normalize rows to nonnegative rhs; also flip ≥ rows with zero rhs:
        # as ≤ rows they start on a slack basis, which keeps artificial
        # variables out of the hot paths
        flipped = [ints[-1] < 0 or (ints[-1] == 0 and rel == GE)
                   for (ints, _), rel in zip(int_rows, problem.relations)]
        # +1 slack, -1 surplus, 0 none
        slack_sign = [0 if rel == EQ else (1 if (rel == LE) != flip else -1)
                      for rel, flip in zip(problem.relations, flipped)]
        n_slack = m - slack_sign.count(0)
        self.first_art = n_struct + n_slack
        total = self.first_art + m - slack_sign.count(1)

        # each row's integers, a zero pad, its rhs; then the slack and
        # artificial entries, each in a column scaled by the row's scale
        pad = [0] * (total - n_struct)
        T: list[list[int]] = []
        ident_col: list[int] = []
        col_scale = [1] * total
        scol, acol = n_struct, self.first_art
        for (ints, s), sign, flip in zip(int_rows, slack_sign, flipped):
            row = [0] * n_struct
            for j, (pc, nc) in enumerate(col_pairs):
                a = ints[j]
                if a:
                    row[pc] = a
                    if nc is not None:
                        row[nc] = -a
            row += pad + ints[-1:]
            if flip:
                row = [-a for a in row]
            if sign:
                row[scol] = sign
                col_scale[scol] = s
                scol += 1
            if sign <= 0:
                row[acol] = 1
                col_scale[acol] = s
                acol += 1
            ident_col.append(acol - 1 if sign <= 0 else scol - 1)
            T.append(row)

        self.T = T
        self.d = 1
        self.basis = list(ident_col)
        self.ident_col = ident_col
        self.col_scale = col_scale
        self.flipped = flipped
        self.m = m
        self.n_struct = n_struct
        self.ncols = total
        self.alive = list(range(m))         # problem row index per tableau row

    def _objective_costs(self, problem: LpProblem) -> tuple[list[int], int]:
        """Phase two's (integer costs per column, denominator)."""
        ints, den = to_integers(problem.objective)
        if problem.sense == MINIMIZE:
            ints = [-c for c in ints]
        costs = [0] * self.ncols
        for c, (pc, nc) in zip(ints, self.col_pairs):
            costs[pc] = c
            if nc is not None:
                costs[nc] = -c
        return costs, den

    # --- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, j: int) -> None:
        T, d = self.T, self.d
        prow = T[r]
        p = prow[j]
        if p < 0:
            # the negated pivot row states the same equation and keeps d > 0
            prow = T[r] = [-q for q in prow]
            p = -p
        for i, row in enumerate(T):
            if i != r:
                T[i] = _edmonds(row, prow, p, d, j)
        self.z = _edmonds(self.z, prow, p, d, j)
        self.d = p
        self.basis[r] = j

    def _run_phase(self, costs: tuple[list[int], int], entering_limit: int):
        """Bland's rule to optimality on costs given as (integers,
        denominator); returns ('optimal', None) or ('unbounded', col)."""
        T, basis = self.T, self.basis
        ints, self.cden = costs
        self.costs = ints
        d = self.d
        z = [d * c for c in ints] + [0]
        for r, col in enumerate(basis):
            cb = ints[col]
            if cb:
                z = [a - cb * t for a, t in zip(z, T[r])]
        self.z = z
        while True:
            z = self.z
            enter = -1
            for j in range(entering_limit):
                if z[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL, None
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
                return UNBOUNDED, enter
            self._pivot(leave, enter)

    def _phase_one(self):
        """Feasibility phase; returns None when feasible, else Farkas data."""
        if all(col < self.first_art for col in self.basis):
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
        r = 0
        while r < len(self.T):
            if self.basis[r] >= self.first_art:
                row = self.T[r]
                enter = next((j for j in range(self.first_art) if row[j] != 0), -1)
                if enter >= 0:
                    self._pivot(r, enter)
                else:
                    # redundant constraint: the row reads "artificial = 0"; the
                    # artificial's start column is a unit vector, so d stays
                    # the determinant of the remaining basis
                    del self.T[r], self.basis[r], self.alive[r]
                    continue
            r += 1

    # --- extraction -------------------------------------------------------

    def _dual_values(self, negate: bool) -> tuple[Fraction, ...]:
        """Multipliers for all problem rows, read off the reduced-cost row;
        ``negate`` (a ``min`` objective) and a flipped row each negate one."""
        z, d, costs = self.z, self.d, self.costs
        den = d * self.cden
        alive = set(self.alive)
        y = []
        for k in range(self.m):
            if k not in alive:
                y.append(_ZERO)
                continue
            col = self.ident_col[k]
            yk = self.col_scale[col] * (d * costs[col] - z[col])
            y.append(Fraction(-yk if self.flipped[k] != negate else yk, den))
        return tuple(y)

    def _structural_point(self) -> list[int]:
        """Basic structural values, times d."""
        xs = [0] * self.n_struct
        for row, col in zip(self.T, self.basis):
            if col < self.n_struct:
                xs[col] = row[-1]
        return xs

    def _ray(self, enter: int) -> list[int]:
        """Recession direction of the entering column, times d; a slack
        column of a row scaled by s_k is s_k times the unscaled slack."""
        scale = self.col_scale[enter]
        ray = [0] * self.n_struct
        if enter < self.n_struct:
            ray[enter] = self.d
        for row, col in zip(self.T, self.basis):
            if col < self.n_struct:
                ray[col] = -row[enter] * scale
        return ray

    def _to_original(self, xs) -> tuple[Fraction, ...]:
        d = self.d
        return tuple([Fraction(xs[pc] - xs[nc] if nc is not None else xs[pc], d)
                      for pc, nc in self.col_pairs])


def _edmonds(row: list[int], prow: list[int], p: int, d: int, j: int) -> list[int]:
    """Eliminate column j from row with pivot row prow (pivot p > 0) under
    common denominator d; the division is exact."""
    f = row[j]
    if f:
        return [(p * a - f * q) // d for a, q in zip(row, prow)]
    if p == d:
        return row
    return [p * a // d for a in row]


def solve(problem: LpProblem) -> LpOutcome:
    """Solve exactly; deterministic for a fixed input."""
    sx = _Simplex(problem)
    farkas = sx._phase_one()
    if farkas is not None:
        return LpOutcome(status=INFEASIBLE, dual=farkas)

    status, enter = sx._run_phase(sx._objective_costs(problem), sx.first_art)
    if status == UNBOUNDED:
        base = sx._to_original(sx._structural_point())
        ray = sx._to_original(sx._ray(enter))
        return LpOutcome(status=UNBOUNDED, primal=base, ray=ray)

    primal = sx._to_original(sx._structural_point())
    minimize = problem.sense == MINIMIZE
    value = Fraction(sx.z[-1] if minimize else -sx.z[-1], sx.d * sx.cden)
    return LpOutcome(status=OPTIMAL, primal=primal, dual=sx._dual_values(minimize),
                     objective_value=value)


def feasible(problem: LpProblem) -> bool:
    """Phase one alone: whether some point satisfies every row."""
    return _Simplex(problem)._phase_one() is None


# --- direct-substitution checks -------------------------------------------
#
# These re-derive every claim an LpOutcome makes from the problem data alone,
# so callers can re-verify witnesses without trusting the solver's path.
# Every row, objective and dual value is one ``rationals.dot``.

def _satisfies(problem: LpProblem, x, rhs) -> bool:
    """Whether x meets the problem's lower bounds and every row against ``rhs``."""
    if len(x) != problem.num_vars:
        return False
    for v, lo in zip(x, problem.lower):
        if lo is not None and v < lo:
            return False
    for row, rel, b in zip(problem.rows, problem.relations, rhs):
        lhs = dot(row, x)
        if (lhs > b) if rel == LE else ((lhs < b) if rel == GE else (lhs != b)):
            return False
    return True


def is_feasible_point(problem: LpProblem, x: Sequence) -> bool:
    return _satisfies(problem, as_fractions(x), problem.rhs)


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
    for j, (lo, c) in enumerate(zip(problem.lower, costs)):
        slack = dot([row[j] for row in problem.rows], y) - c
        if (slack != 0) if lo is None else (sign * slack < 0):
            return None
    return dot(problem.rhs, y)


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
    improving: it satisfies the problem with every rhs set to 0 (lower
    bounds are 0 already)."""
    if outcome.status != UNBOUNDED or outcome.ray is None or outcome.primal is None:
        return False
    if not is_feasible_point(problem, outcome.primal):
        return False
    if not _satisfies(problem, outcome.ray, [_ZERO] * problem.num_rows):
        return False
    gain = dot(problem.objective, outcome.ray)
    return gain > 0 if problem.sense == MAXIMIZE else gain < 0


_CHECKS = {OPTIMAL: check_optimal, UNBOUNDED: check_ray, INFEASIBLE: check_farkas}


def check_outcome(problem: LpProblem, outcome: LpOutcome) -> bool:
    """The exact re-substitution check for the outcome's status."""
    check = _CHECKS.get(outcome.status)
    return check is not None and check(problem, outcome)
