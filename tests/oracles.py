"""Independent brute-force oracles used to cross-check the library.

Everything here re-derives answers from first principles (Gaussian
elimination plus exhaustive enumeration) without touching the simplex code
path, so a bug in the solver cannot hide itself.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

from noarb import lp

import global_routes

ZERO = Fraction(0)


def gauss_solve(matrix, rhs):
    """Solve a square exact linear system; None when singular.

    Fraction-free Gauss–Jordan: each row of [matrix | rhs] is scaled to
    integers, and each elimination is the exact integer step
    (p·a − f·b) // d, with p the pivot and d the previous one (Bareiss
    1968), so every entry stays an integer and no gcd is taken.  At the end
    every diagonal entry is the same determinant, and each unknown is its
    row's rhs over its diagonal entry."""
    n = len(matrix)
    A = []
    for row, b in zip(matrix, rhs):
        values = [*row, b]
        den = lcm(*[v.denominator for v in values])
        A.append([v.numerator * (den // v.denominator) for v in values])
    d = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return None
        A[col], A[piv] = A[piv], A[col]
        pivot_row = A[col]
        p = pivot_row[col]
        for r in range(n):
            if r != col:
                f = A[r][col]
                A[r] = [(p * a - f * b) // d for a, b in zip(A[r], pivot_row)]
        d = p
    return [Fraction(A[r][n], A[r][r]) for r in range(n)]


def row_reduce(A, b):
    """Row-reduce [A|b]; returns (reduced rows, reduced rhs) or None if A z = b
    is inconsistent."""
    m = len(A)
    n = len(A[0]) if A else 0
    M = [list(row) + [b[i]] for i, row in enumerate(A)]
    rows = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = Fraction(1) / M[r][c]
        M[r] = [v * inv for v in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [a - f * v for a, v in zip(M[i], M[r])]
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if M[i][n] != 0:
            return None
    return [M[i][:n] for i in range(r)], [M[i][n] for i in range(r)]


def slack_form(problem):
    """Independent conversion to A z = b over z >= 0: z is x, then x⁻ for
    each free variable in index order (x_j reads as x⁺_j − x⁻_j, with x⁺_j
    in x's own column), then one slack or surplus per inequality row.
    Returns A, b, n, the free indices in order and the width of z."""
    rows, rels, rhs = problem.rows, problem.relations, problem.rhs
    slack_of = {i: k for k, i in enumerate(i for i, rel in enumerate(rels) if rel != lp.EQ)}
    n = problem.num_vars
    free = sorted(problem.free)
    width = n + len(free) + len(slack_of)
    A = []
    for i, row in enumerate(rows):
        ext = [ZERO] * len(slack_of)
        if i in slack_of:
            ext[slack_of[i]] = Fraction(1) if rels[i] == lp.LE else Fraction(-1)
        A.append(list(row) + [-row[j] for j in free] + ext)
    return A, rhs, n, free, width


def basic_feasible_points(problem):
    """All basic feasible solutions of the slack form, read back as x
    (x⁺ − x⁻ on a free variable).

    A basic solution picks rank-many columns, solves the reduced square
    system, and keeps the point iff it is nonnegative and satisfies every
    original equation.
    """
    A, b, n, free, width = slack_form(problem)
    reduced = row_reduce(A, b)
    if reduced is None:
        return []
    R, rb = reduced
    rank = len(R)
    points = set()
    if rank == 0:
        return [tuple([ZERO] * n)]
    for cols in combinations(range(width), rank):
        square = [[R[i][j] for j in cols] for i in range(rank)]
        sol = gauss_solve(square, rb)
        if sol is None or any(v < 0 for v in sol):
            continue
        z = [ZERO] * width
        for j, v in zip(cols, sol):
            z[j] = v
        if all(sum(row[j] * z[j] for j in range(width)) == t for row, t in zip(A, b)):
            x = z[:n]
            for k, j in enumerate(free):
                x[j] -= z[n + k]
            points.add(tuple(x))
    return sorted(points)


def best_vertex_value(problem):
    """Max/min of the objective over all basic feasible solutions, or None."""
    points = basic_feasible_points(problem)
    if not points:
        return None
    values = [lp.objective_value(problem, p) for p in points]
    return max(values) if problem.sense == lp.MAXIMIZE else min(values)


def martingale_polytope_vertices(model):
    """Vertices of {q >= 0 : sum q = 1, cellwise expected increments zero}.

    Brute force over column subsets with exact elimination; meant for
    one-period models with few outcomes.  Independent of the LP route used
    by the library.
    """
    n = len(model.space)
    rows = [[Fraction(1)] * n]
    rhs = [Fraction(1)]
    for gain in global_routes.elementary_gains(model):
        rows.append(list(gain.vector.values))
        rhs.append(ZERO)
    reduced = row_reduce(rows, rhs)
    if reduced is None:
        return []
    R, rb = reduced
    rank = len(R)
    vertices = set()
    for cols in combinations(range(n), rank):
        square = [[R[i][j] for j in cols] for i in range(rank)]
        sol = gauss_solve(square, rb)
        if sol is None or any(v < 0 for v in sol):
            continue
        q = [ZERO] * n
        for j, v in zip(cols, sol):
            q[j] = v
        if all(sum(row[j] * q[j] for j in range(n)) == t for row, t in zip(rows, rhs)):
            vertices.add(tuple(q))
    return sorted(vertices)


def add_caps(rows, rels, rhs, caps):
    """The rows, relations and rhs with one unit row x_j <= caps[j] appended,
    in order, for each j whose cap is not None."""
    n = len(caps)
    capped = [j for j, cap in enumerate(caps) if cap is not None]
    return ([*rows, *[[Fraction(1) if i == j else ZERO for i in range(n)] for j in capped]],
            [*rels, *[lp.LE] * len(capped)],
            [*rhs, *[caps[j] for j in capped]])


def seeded_lps(seed=2, count=500):
    """The seeded random LPs of the LP certification criterion: 1 to 6
    variables, 1 to 6 rows, all three relations, then a unit <= row for
    some variables."""
    rng = random.Random(seed)
    problems = []
    for _ in range(count):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        def coeff():
            return Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        objective = [coeff() for _ in range(n)]
        rows = [[coeff() for _ in range(n)] for _ in range(m)]
        rels = [rng.choice(["<=", "==", ">="]) for _ in range(m)]
        rhs = [coeff() for _ in range(m)]
        caps = [Fraction(rng.randint(1, 6)) if rng.random() < 0.25 else None
                for _ in range(n)]
        problems.append(lp.LpProblem(objective, *add_caps(rows, rels, rhs, caps),
                                     sense=rng.choice(["max", "min"])))
    return problems
