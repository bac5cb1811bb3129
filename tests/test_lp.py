import dataclasses
import hashlib
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from noarb import fileio, lab, lp, market, rationals, separation
from noarb.errors import StructureError

import global_routes
import oracles
from conftest import crr_tree

DATA = Path(__file__).parent / "data"

small = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def lp_problems(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    rows = [[draw(small) for _ in range(n)] for _ in range(m)]
    rels = [draw(st.sampled_from(["<=", "==", ">="])) for _ in range(m)]
    rhs = [draw(small) for _ in range(m)]
    free = [j for j in range(n) if draw(st.booleans())]
    caps = [draw(st.one_of(st.none(), st.fractions(min_value=0, max_value=4,
                                                   max_denominator=3)))
            for _ in range(n)]
    sense = draw(st.sampled_from(["max", "min"]))
    return lp.LpProblem([draw(small) for _ in range(n)],
                        *oracles.add_caps(rows, rels, rhs, caps),
                        free=free, sense=sense)


def assert_fractions(*vectors):
    """Every returned number is a plain ``fractions.Fraction``."""
    for vector in vectors:
        if vector is not None:
            assert all(type(v) is F for v in vector), vector


def assert_outcome_fractions(outcome):
    assert_fractions(outcome.primal, outcome.dual, outcome.ray)
    if outcome.objective_value is not None:
        assert type(outcome.objective_value) is F


@settings(max_examples=80, deadline=None)
@given(problem=lp_problems())
def test_every_outcome_certifies(problem):
    outcome = lp.solve(problem)
    assert lp.check_outcome(problem, outcome)
    assert_outcome_fractions(outcome)


def test_box_maximum():
    p = lp.LpProblem([1, 1], [[1, 0], [0, 1]], ["<=", "<="], [1, 1])
    out = lp.solve(p)
    assert out.status == lp.OPTIMAL
    assert out.objective_value == 2
    assert out.primal == (F(1), F(1))
    assert lp.check_optimal(p, out)

    class Sub(F):
        pass

    # a subclass on input still comes back as a plain Fraction
    out = lp.solve(lp.LpProblem([1, 1], [[1, 0], [0, 1]], ["<=", "<="], [Sub(1), Sub(1)]))
    assert out.primal == (F(1), F(1))
    assert_outcome_fractions(out)


def test_problem_coerces_rows_exactly():
    # exact Fractions pass through as they are; a subclass is rebuilt as a
    # plain Fraction, and a float is refused wherever it sits in a row
    class Sub(F):
        pass

    p = lp.LpProblem([1, 1], [[F(1, 2), Sub(3)], [1, "2/3"]], ["<=", "<="], [1, 1])
    assert p.rows == ((F(1, 2), F(3)), (F(1), F(2, 3)))
    assert all(type(v) is F for row in p.rows for v in row)
    for bad in ([[0.5, 1]], [[F(1), 0.5]]):
        with pytest.raises(StructureError, match="floats are not exact"):
            lp.LpProblem([1, 1], bad, ["<="], [1])


def test_contradictory_bounds_infeasible_with_certificate():
    p = lp.LpProblem([1], [[-1], [1]], ["<=", "<="], [-1, 0])
    out = lp.solve(p)
    assert out.status == lp.INFEASIBLE
    assert lp.check_farkas(p, out)


def test_unbounded_with_ray():
    p = lp.LpProblem([1, 0], [[1, -1]], ["<="], [0])
    out = lp.solve(p)
    assert out.status == lp.UNBOUNDED
    assert out.ray == (F(1), F(1))
    assert lp.check_ray(p, out)


def test_checks_reject_corrupted_certificates():
    # max x + y with the rows x <= 1 and y <= 2: optimum 3 at (1, 2)
    box = lp.LpProblem([1, 1], [[1, 0], [0, 1]], ["<=", "<="], [1, 2])
    out = lp.solve(box)
    assert (out.primal, out.dual) == ((1, 2), (1, 1))
    assert lp.check_outcome(box, out)
    for bad in [dict(primal=(F(2), F(2))), dict(objective_value=F(4)),
                dict(dual=(F(2), F(1))), dict(dual=(F(-1), F(2))), dict(dual=(F(1),)),
                dict(dual=(F(1), F(2))),
                # dual objective 3 as well, but y·A_j falls short of c_j = 1,
                # first for y, then for x
                dict(dual=(F(3), F(0))), dict(dual=(F(1, 2), F(5, 4)))]:
        assert not lp.check_outcome(box, dataclasses.replace(out, **bad)), bad
    farkas = lp.LpProblem([1], [[-1], [1]], ["<=", "<="], [-1, 0])
    out = lp.solve(farkas)
    assert lp.check_outcome(farkas, out)
    for dual in [tuple(-y for y in out.dual), (F(0), F(0))]:
        assert not lp.check_outcome(farkas, dataclasses.replace(out, dual=dual)), dual
    # max x with x - y <= 0 over x, y >= 0: unbounded along (1, 1)
    ray = lp.LpProblem([1, 0], [[1, -1]], ["<="], [0])
    out = lp.solve(ray)
    assert lp.check_outcome(ray, out)
    for bad in [(F(1), F(0)), (F(-1), F(-1)), (F(0), F(1)), (F(1), F(1), F(0))]:
        assert not lp.check_outcome(ray, dataclasses.replace(out, ray=bad)), bad
    # a ray from a point that breaks the row x - y <= 0
    assert not lp.check_outcome(ray, dataclasses.replace(out, primal=(F(1), F(0))))
    assert not lp.check_outcome(ray, dataclasses.replace(out, status="bounded"))


def test_farkas_rejects_a_corrupted_certificate():
    # -x <= 1 holds at x = 0; y = (-1) has rhs·y = -1 < 0 and y·A = 1 >= 0,
    # so only the sign of a <= row's multiplier rejects it
    problem = lp.LpProblem([0], [[-1]], ["<="], [1])
    out = dataclasses.replace(lp.solve(problem), status=lp.INFEASIBLE, dual=(F(-1),))
    assert not lp.check_farkas(problem, out)


def test_ray_rejects_a_corrupted_certificate():
    # min x s.t. x >= 0 is bounded; the zero ray recedes but does not improve
    problem = lp.LpProblem([1], [[1]], [">="], [0], sense="min")
    out = dataclasses.replace(lp.solve(problem), status=lp.UNBOUNDED, ray=(F(0),))
    assert not lp.check_ray(problem, out)


def test_each_check_accepts_only_its_own_status():
    checks = (lp.check_optimal, lp.check_ray, lp.check_farkas)
    problems = (lp.LpProblem([1, 1], [[1, 0], [0, 1]], ["<=", "<="], [1, 2]),
                lp.LpProblem([1, 0], [[1, -1]], ["<="], [0]),
                lp.LpProblem([1], [[-1], [1]], ["<=", "<="], [-1, 0]))
    for k, problem in enumerate(problems):
        out = lp.solve(problem)
        assert [check(problem, out) for check in checks] == [i == k for i in range(3)]


def test_degenerate_duplicate_constraints_terminate():
    # duplicated binding rows create a degenerate vertex with several bases
    p = lp.LpProblem(
        [3, 2, 1],
        [[1, 1, 1], [1, 1, 1], [1, 0, 0], [1, 1, 0]],
        ["<="] * 4,
        [1, 1, 1, 1],
    )
    out = lp.solve(p)
    assert out.status == lp.OPTIMAL
    assert out.objective_value == oracles.best_vertex_value(p)
    assert lp.check_optimal(p, out)


def feasibility_witness(problem):
    """The point that phase one found: with a zero objective, phase two
    enters no column, so ``solve`` returns it unchanged."""
    out = lp.solve(problem)
    assert lp.feasible(problem) is True
    assert out.status == lp.OPTIMAL and out.objective_value == 0
    assert lp.is_feasible_point(problem, out.primal)
    assert_fractions(out.primal)
    return out.primal


def test_feasibility_witness():
    p = lp.LpProblem([0], [[1]], ["=="], [F(1, 3)])
    assert feasibility_witness(p) == (F(1, 3),)
    feasibility_witness(lp.LpProblem([0], [[1]], [">="], [F(1, 3)]))
    # rows scaled to integers by 30 and 7 inside the solver
    scaled = lp.LpProblem([0, 0], [[F(1, 3), F(1, 5)], [1, -1]], ["==", ">="],
                          [F(7, 2), F(1, 7)])
    assert feasibility_witness(scaled) == (F(741, 112), F(725, 112))


def test_feasibility_certificate():
    p = lp.LpProblem([0], [[1], [1]], [">=", "<="], [1, 0])
    assert lp.feasible(p) is False
    out = lp.solve(p)
    assert out.status == lp.INFEASIBLE
    assert lp.check_farkas(p, out)
    assert_fractions(out.dual)


def test_binomial_martingale_system_witness():
    # 2q + (1-q)/2 = 1 over q in [0,1]: the unique solution is q = 1/3
    p = lp.LpProblem(
        [0, 0],
        [[2, F(1, 2)], [1, 1]],
        ["==", "=="],
        [1, 1],
    )
    assert feasibility_witness(p) == (F(1, 3), F(2, 3))


def test_minimize_sense_duality():
    p = lp.LpProblem([2, 3], [[1, 1], [1, -1]], ["==", ">="], [1, F(1, 2)],
                     free=[0], sense="min")
    assert type(p.free) is frozenset and p.free == {0}
    out = lp.solve(p)
    assert out.status == lp.OPTIMAL
    assert out.objective_value == 2
    assert lp.check_optimal(p, out)


def test_no_constraints():
    p = lp.LpProblem([-1, -2], [], [], [])
    out = lp.solve(p)
    assert out.status == lp.OPTIMAL
    assert out.objective_value == 0
    unb = lp.solve(lp.LpProblem([1], [], [], []))
    assert unb.status == lp.UNBOUNDED
    assert lp.check_ray(lp.LpProblem([1], [], [], []), unb)


def test_zero_variable_problem():
    p = lp.LpProblem([], [[], []], ["<=", ">="], [1, 2])
    assert lp.solve(p).status == lp.INFEASIBLE
    p2 = lp.LpProblem([], [[]], ["<="], [1])
    out = lp.solve(p2)
    assert out.status == lp.OPTIMAL and out.objective_value == 0


def test_redundant_equality_rows_are_dropped():
    p = lp.LpProblem([1, 1], [[1, 1], [2, 2], [1, 0]], ["==", "==", "<="], [1, 2, 1])
    out = lp.solve(p)
    assert out.status == lp.OPTIMAL
    assert out.objective_value == 1
    assert lp.check_optimal(p, out)


def test_determinism_identical_outcomes():
    rng = random.Random(7)
    for _ in range(25):
        p = random_problem(rng)
        first = lp.solve(p)
        second = lp.solve(p)
        assert first == second


def test_malformed_dimensions_rejected():
    with pytest.raises(StructureError):
        lp.LpProblem([1], [[1, 2]], ["<="], [1])
    with pytest.raises(StructureError):
        lp.LpProblem([1], [[1]], ["<="], [1, 2])
    with pytest.raises(StructureError):
        lp.LpProblem([1], [[1]], ["<"], [1])
    with pytest.raises(StructureError):
        lp.LpProblem([1], [[1]], ["<="], [1], free=[1])
    # one spelling per relation, and a bound is a row, not a keyword: a
    # variable is nonnegative unless ``free`` names it
    with pytest.raises(StructureError):
        lp.LpProblem([1], [[1]], ["="], [1])
    for bound in ("upper", "lower"):
        with pytest.raises(TypeError):
            lp.LpProblem([1], [[1]], ["<="], [1], **{bound: [1]})


def random_problem(rng, max_dim=6):
    n = rng.randint(1, max_dim)
    m = rng.randint(1, max_dim)
    def coeff():
        return F(rng.randint(-6, 6), rng.randint(1, 4))
    rows = [[coeff() for _ in range(n)] for _ in range(m)]
    rels = [rng.choice(["<=", "==", ">="]) for _ in range(m)]
    rhs = [coeff() for _ in range(m)]
    caps = [F(rng.randint(1, 5)) if rng.random() < 0.2 else None for _ in range(n)]
    sense = rng.choice(["max", "min"])
    obj = [coeff() for _ in range(n)]
    return lp.LpProblem(obj, *oracles.add_caps(rows, rels, rhs, caps), sense=sense)


def test_random_free_variable_problems_certify():
    """Free-variable problems certify, and each optimum and each
    infeasibility agrees with the vertex oracle, which splits every free
    variable into x⁺ − x⁻ without going through ``lp``."""
    rng = random.Random(31405)
    statuses = set()
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        def coeff():
            return F(rng.randint(-5, 5), rng.randint(1, 3))
        obj = [coeff() for _ in range(n)]
        rows = [[coeff() for _ in range(n)] for _ in range(m)]
        rels = [rng.choice(["<=", "==", ">="]) for _ in range(m)]
        rhs = [coeff() for _ in range(m)]
        free = [j for j in range(n) if rng.random() < 0.5]
        caps = [F(rng.randint(1, 4)) if rng.random() < 0.2 else None for _ in range(n)]
        p = lp.LpProblem(obj, *oracles.add_caps(rows, rels, rhs, caps), free=free,
                         sense=rng.choice(["max", "min"]))
        out = lp.solve(p)
        statuses.add(out.status)
        assert lp.check_outcome(p, out)
        assert_outcome_fractions(out)
        if out.status == lp.OPTIMAL:
            assert out.objective_value == oracles.best_vertex_value(p)
        else:
            assert (oracles.basic_feasible_points(p) == []) == (out.status == lp.INFEASIBLE)
    assert statuses == {lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE}


def test_random_problems_match_vertex_enumeration():
    rng = random.Random(20240)
    for k in range(80):
        p = random_problem(rng, max_dim=4)
        out = lp.solve(p)
        assert lp.check_outcome(p, out), f"instance {k} failed certificate check"
        if out.status == lp.OPTIMAL:
            assert out.objective_value == oracles.best_vertex_value(p)
        elif out.status == lp.INFEASIBLE:
            assert oracles.basic_feasible_points(p) == []
        else:
            assert oracles.basic_feasible_points(p) != []


def outcome_fields(outcome):
    """What an outcome states, independent of how its class lays out fields."""
    return (outcome.status, outcome.primal, outcome.dual, outcome.objective_value, outcome.ray)


def outcome_digest(outcomes):
    """sha256 over the repr of each outcome's fields, in order, exactly."""
    return hashlib.sha256("\n".join(repr(outcome_fields(o)) for o in outcomes)
                          .encode()).hexdigest()


def corpus_outcomes(monkeypatch, markets=100):
    """Every LpOutcome that the whole-market routes obtain on
    the first seed-0 lab.random_market markets, in call order: global NA,
    indicator prices up to the first non-positive one, NUPBR, the global EMM,
    then the strict separator."""
    seen, solve = [], lp.solve

    def record(problem):
        seen.append(solve(problem))
        return seen[-1]

    monkeypatch.setattr(lp, "solve", record)
    rng = random.Random(0)
    for _ in range(markets):
        global_routes.full_verdict(lab.random_market(rng))
    return seen


def test_pivot_path_digest(monkeypatch):
    # Bland's rule fixes the pivot path, so the returned vertex, duals and ray
    # are fixed too; any change of arithmetic must leave these bytes alone
    seeded = [lp.solve(p) for p in oracles.seeded_lps()]
    assert outcome_digest(seeded) == SEEDED_DIGEST
    # the seeded LPs have no free variable; freeing every other one reaches
    # the free-variable paths, rays included (127 optimal, 194 unbounded,
    # 179 infeasible)
    free = [lp.solve(p) for p in every_other_free(oracles.seeded_lps())]
    assert outcome_digest(free) == FREE_DIGEST
    corpus = corpus_outcomes(monkeypatch)
    assert len(corpus) == 626
    assert outcome_digest(corpus) == CORPUS_DIGEST


def starts_on_an_artificial(problem):
    """Whether some row starts on an artificial: an ``==`` row, or an
    inequality whose slack would start negative (a ≥ row with zero rhs is
    flipped to a ≤ row and starts on its slack)."""
    return any(rel == lp.EQ or (rel == lp.GE and ints[-1] > 0) or (rel == lp.LE and ints[-1] < 0)
               for (ints, _), rel in zip(problem.int_rows, problem.relations))


def test_pivot_counts_pin_the_pivot_path(monkeypatch):
    """The digests pin outcomes; these totals pin how many pivots the
    seeded LPs, as drawn and with every other variable free, and the corpus
    LPs take to reach them.  Phase one runs on a tableau exactly when some
    row starts on an artificial."""
    init, phase_one = lp._Simplex.__init__, lp._Simplex._phase_one
    pivot, run_phase = lp._Simplex._pivot, lp._Simplex._run_phase
    seen = {"pivots": 0, "in_phase_one": False, "tableaux": []}

    def start(sx, problem):
        init(sx, problem)
        seen["tableaux"].append([starts_on_an_artificial(problem), False])

    def first_phase(sx):
        seen["in_phase_one"] = True
        try:
            return phase_one(sx)
        finally:
            seen["in_phase_one"] = False

    def counted(sx, r, j):
        seen["pivots"] += 1
        pivot(sx, r, j)

    def phase(sx, costs, entering_limit):
        seen["tableaux"][-1][1] |= seen["in_phase_one"]
        return run_phase(sx, costs, entering_limit)

    for name, method in [("__init__", start), ("_phase_one", first_phase),
                         ("_pivot", counted), ("_run_phase", phase)]:
        monkeypatch.setattr(lp._Simplex, name, method)
    totals = []
    for solve_all in (lambda: [lp.solve(p) for p in oracles.seeded_lps()],
                      lambda: [lp.solve(p) for p in every_other_free(oracles.seeded_lps())],
                      lambda: corpus_outcomes(monkeypatch)):
        seen["pivots"] = 0
        solve_all()
        totals.append(seen["pivots"])
    assert totals == [1172, 1641, 1607]
    tableaux = seen["tableaux"]
    assert len(tableaux) == 500 + 500 + 626
    assert all(artificial == ran for artificial, ran in tableaux)
    assert 0 < sum(artificial for artificial, _ in tableaux) < len(tableaux)


SEEDED_DIGEST = "58e0f74769c8baddc392be57e5fd68f3d32c2c01e9c02ef4087c2738bc69a4ce"
CORPUS_DIGEST = "f896e9b109c3b50666292c098f3f41737944c876b534216fd36dc35566464b95"
FREE_DIGEST = "0f086b04b3cc8744a8eeb18252a7ac7510aba72ab2ad8f75b6dcb954326dbc43"


def exact_steps(monkeypatch):
    """Wrap ``_Simplex._pivot`` so that every Edmonds step, reduced-cost row
    included, must divide exactly; returns the pivot entries seen, in order."""
    pivots = []
    pivot = lp._Simplex._pivot

    def checked(sx, r, j):
        prow, d = sx.T[r], sx.d
        p = prow[j]
        sign = 1 if p > 0 else -1
        assert p and d > 0
        for row in [row for i, row in enumerate(sx.T) if i != r] + [sx.z]:
            f = row[j]
            assert all((abs(p) * a - f * sign * q) % d == 0 for a, q in zip(row, prow))
        pivots.append(p)
        pivot(sx, r, j)
        assert sx.d == abs(p)

    monkeypatch.setattr(lp._Simplex, "_pivot", checked)
    return pivots


def inverse(matrix):
    """The inverse of a square matrix of Fractions, by Gauss–Jordan with
    row swaps, and its determinant."""
    n = len(matrix)
    A = [[F(a) for a in row] + [F(int(i == k)) for k in range(n)]
         for i, row in enumerate(matrix)]
    det = F(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col])
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        p = A[col][col]
        det *= p
        A[col] = [a / p for a in A[col]]
        for r in range(n):
            f = A[r][col]
            if r != col and f:
                A[r] = [a - f * q for a, q in zip(A[r], A[col])]
    return [row[n:] for row in A], det


def test_stored_columns_restate_the_basis_inverse(monkeypatch):
    """The tableau stores only the nonbasic columns, one per variable;
    after every pivot, each stored column, rhs included, is d·B⁻¹ times its
    variable's start column, where B holds the start columns of the basis
    (a start-basic slack or artificial has the unit column of its row, and
    a free variable held as −x has its start column negated), and
    |det B| = d; each reduced cost is d·c less the basic costs times its
    column.  So each exchange step keeps what the full tableau kept."""
    init, pivot = lp._Simplex.__init__, lp._Simplex._pivot
    pivots, negated, minus = 0, 0, 0

    def start(sx, problem):
        init(sx, problem)
        sx.start = [row[:] for row in sx.T], list(sx.nonbasic)

    def checked(sx, r, j):
        nonlocal pivots, negated, minus
        negated += sx.T[r][j] < 0
        pivot(sx, r, j)
        pivots += 1
        T0, nonbasic0 = sx.start

        def start_column(v):
            """v's start column (the rhs for None)."""
            if v is None:
                return [row[-1] for row in T0]
            if v in nonbasic0:
                sign = sx.sign[v] if v < sx.n_struct else 1
                return [sign * row[nonbasic0.index(v)] for row in T0]
            return [int(v == c) for c in sx.ident_col]

        assert sorted(sx.basis + sx.nonbasic) == list(range(sx.ncols))
        minus += sx.sign.count(-1)
        assert all(len(row) == len(sx.nonbasic) + 1 for row in sx.T)
        Binv, det = inverse(list(zip(*[start_column(v) for v in sx.basis])))
        assert abs(det) == sx.d
        for j, v in enumerate([*sx.nonbasic, None]):
            column = start_column(v)
            assert [row[j] for row in sx.T] == [
                sx.d * sum(b * a for b, a in zip(inv_row, column)) for inv_row in Binv]
            # the reduced cost: d·c_v less the basic costs times the column
            cost = 0 if v is None else sx.costs[v]
            assert sx.z[j] == sx.d * cost - sum(
                sx.costs[b] * row[j] for b, row in zip(sx.basis, sx.T))

    monkeypatch.setattr(lp._Simplex, "__init__", start)
    monkeypatch.setattr(lp._Simplex, "_pivot", checked)
    for problem in [*oracles.seeded_lps(), *every_other_free(oracles.seeded_lps())]:
        lp.solve(problem)
    assert pivots > 1000 and negated > 0 and minus > 0


def every_other_free(problems):
    """The problems with every other variable, from the second, made free."""
    return [lp.LpProblem.from_integers(p.int_objective, p.int_rows, p.relations, sense=p.sense,
                                       free=range(1, p.num_vars, 2))
            for p in problems]


def test_one_column_per_free_pair_keeps_the_pivot_path(monkeypatch):
    """One index and one stored column per free variable changes no pivot,
    which the digests (they pin outcomes) would not show: on the CRR
    ladder, the pivot counts and the largest d of the whole-market NUPBR LP
    and of the exhaustion's separation LPs are pinned; on the seeded LPs
    with free variables some entering step takes a stored column's
    negative; driving out an artificial enters a free variable as +x; and a
    fresh tableau of the NUPBR LP, whose rows start on slacks, stores one
    integer per strategy coefficient and the rhs."""
    seen = {"pivots": 0, "bits": 0, "negated": 0, "driving": False, "signs": []}
    pivot, flip, drive = lp._Simplex._pivot, lp._Simplex._flip, lp._Simplex._drive_out_artificials

    def counted(sx, r, j):
        pivot(sx, r, j)
        seen["pivots"] += 1
        seen["bits"] = max(seen["bits"], sx.d.bit_length())

    def flipped(sx, j):
        seen["negated"] += not seen["driving"]
        flip(sx, j)

    def driving(sx):
        seen["driving"], seen["signs"] = True, list(sx.sign)
        drive(sx)
        seen["driving"] = False

    monkeypatch.setattr(lp._Simplex, "_pivot", counted)
    monkeypatch.setattr(lp._Simplex, "_flip", flipped)
    monkeypatch.setattr(lp._Simplex, "_drive_out_artificials", driving)
    ladder = []
    for T in (5, 6):
        model, _ = crr_tree(T, F(5, 2))
        for route in (lambda: market.check_nupbr(model),
                      lambda: separation.strict_separator_exists(market.payoff_cone(model))):
            seen.update(pivots=0, bits=0)
            assert route()
            ladder.append((seen["pivots"], seen["bits"]))
    assert ladder == [(63, 127), (32, 122), (147, 272), (64, 254)]

    seen["negated"] = 0
    for problem in every_other_free(oracles.seeded_lps()):
        lp.solve(problem)
    assert seen["negated"] > 0

    # phase one ends with the second variable stored as −x, in a row whose
    # artificial 7 is then driven out; it enters there as +x, as x⁺ did when
    # each free variable was split into x⁺ − x⁻ under two indices
    p = lp.LpProblem([0, -3, 0, -2],
                     [[0, -1, -3, 0], [3, 2, -2, -3], [-3, -2, -1, 10], [-3, -1, -6, 8],
                      [-2, -1, -1, 2], [2, 0, 6, 0]], ["=="] * 6, [0] * 6,
                     free=[1, 3])
    sx = lp._Simplex(p)
    assert sx._phase_one() is None
    assert seen["signs"] == [1, -1, 1, 1] and sx.sign == [1, 1, 1, 1]
    assert sx.basis == [3, 0, 2, 1, 8, 9]

    problems, solve = [], lp.solve

    def record(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(lp, "solve", record)
    market.check_nupbr(crr_tree(3)[0])
    [problem] = problems
    sx = lp._Simplex(problem)
    assert problem.free == set(range(problem.num_vars)) and sx.n_struct == problem.num_vars
    assert [len(row) for row in sx.T] == [problem.num_vars + 1] * problem.num_rows


def test_slack_rows_store_only_the_structural_columns(monkeypatch):
    """``separate_at``'s LP has only ≤ rows, each starting on its slack, so a
    fresh tableau stores one column per outcome and the rhs: no slack
    identity block."""
    problems, solve = [], lp.solve

    def record(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(lp, "solve", record)
    cone = fileio.load_cone((DATA / "cone_with_gen.json").read_text())
    separation.separate_at(cone, cone.space.indicator("a"))
    [problem] = problems
    assert set(problem.relations) == {lp.LE} and problem.num_rows == 2
    sx = lp._Simplex(problem)
    assert sx.nonbasic == list(range(sx.n_struct)) == [0, 1]
    assert [len(row) for row in sx.T] == [sx.n_struct + 1] * problem.num_rows


def test_every_edmonds_step_divides_exactly(monkeypatch):
    pivots = exact_steps(monkeypatch)
    for problem in oracles.seeded_lps():
        lp.solve(problem)
        lp.feasible(problem)
    assert len(pivots) > 2000
    assert any(p < 0 for p in pivots)


def test_negative_pivot_driving_out_an_artificial(monkeypatch):
    # -3x == 0 leaves its artificial basic at zero after phase one; driving it
    # out pivots on -3, and phase two pivots again under d = 3
    pivots = exact_steps(monkeypatch)
    p = lp.LpProblem([0, 1], [[-3, 0], [1, 1]], ["==", "<="], [0, F(5, 2)])
    sx = lp._Simplex(p)
    assert sx._phase_one() is None
    assert pivots == [-3] and sx.d == 3
    out = lp.solve(p)
    assert pivots[1:] == [-3, 6]  # row 2 is scaled by 2, then by d = 3
    assert out.primal == (F(0), F(5, 2))
    assert out.objective_value == F(5, 2)
    assert lp.check_optimal(p, out)


def test_redundant_row_stays_then_pivots_continue(monkeypatch):
    pivots = exact_steps(monkeypatch)
    p = lp.LpProblem([1, 2], [[F(1, 2), F(1, 2)], [1, 1], [1, -1]], ["==", "==", "<="],
                     [F(1, 2), 1, F(1, 3)])
    sx = lp._Simplex(p)

    def redundant_row_stays():
        # the duplicated row keeps its artificial basic at 0, and is zero on
        # every column that can enter, so no pivot moves it
        row = sx.T[1]
        assert len(sx.T) == 3 and sx.basis[1] >= sx.first_art and row[-1] == 0
        assert all(a == 0 for a, v in zip(row, sx.nonbasic) if v < sx.first_art)

    assert sx._phase_one() is None
    redundant_row_stays()
    assert sx._run_phase(sx._objective_costs(p), sx.first_art)[0] == lp.OPTIMAL
    redundant_row_stays()
    assert len(pivots) == 3  # two in phase one, one in phase two
    out = lp.solve(p)
    assert out.primal == (F(0), F(1))
    assert out.objective_value == 2
    assert out.dual[1] == 0
    assert lp.check_optimal(p, out)


PRIMES = (2**31 - 1, 10**9 + 7, 998244353, 2**61 - 1, 1000003, 65537)


def test_large_coprime_denominators(monkeypatch):
    exact_steps(monkeypatch)
    a, b, c, d, e, f = PRIMES
    p = lp.LpProblem(
        [F(1, a), F(1, b), F(-1, c)],
        [[F(1, a), F(1, b), F(1, c)], [F(1, d), F(-1, e), 0], [F(1, f), 0, F(1, a)]],
        ["<=", ">=", "=="],
        [F(1, e), F(-1, f), F(1, b)],
    )
    out = lp.solve(p)
    assert out.status == lp.OPTIMAL
    assert lp.check_optimal(p, out)
    assert out.objective_value == oracles.best_vertex_value(p)
    assert lp.is_feasible_point(p, feasibility_witness(
        lp.LpProblem([0] * 3, p.rows, p.relations, p.rhs)))


def test_unbounded_ray_through_a_scaled_slack():
    # x >= 1/3 is scaled by 3, so its surplus column is 3 times the surplus
    p = lp.LpProblem([1], [[1]], [">="], [F(1, 3)])
    sx = lp._Simplex(p)
    assert sx._phase_one() is None
    status, enter = sx._run_phase(sx._objective_costs(p), sx.first_art)
    assert status == lp.UNBOUNDED
    assert enter >= sx.n_struct and sx.col_scale[enter] == 3
    out = lp.solve(p)
    assert out.primal == (F(1, 3),)
    assert out.ray == (F(1),)
    assert lp.check_ray(p, out)


@settings(max_examples=80, deadline=None)
@given(problem=lp_problems(), data=st.data())
def test_scaling_a_slack_row_is_metamorphic(problem, data):
    """Scaling a row and its rhs by k > 0 never changes the status.  A row that
    starts on its slack never enters phase one's objective, so Bland's path is
    unchanged: primal, objective and other duals stay, that row's dual is
    divided by k, and so is a ray that enters through that row's own slack."""
    assume(problem.num_rows)
    i = data.draw(st.integers(0, problem.num_rows - 1))
    k = data.draw(st.fractions(min_value=F(1, 16), max_value=16, max_denominator=16))
    rows, rhs = list(problem.rows), list(problem.rhs)
    rows[i] = [k * a for a in rows[i]]
    rhs[i] = k * rhs[i]
    scaled = lp.LpProblem(problem.objective, rows, problem.relations, rhs,
                          free=problem.free, sense=problem.sense)
    before, after = lp.solve(problem), lp.solve(scaled)
    assert after.status == before.status
    rel, b = problem.relations[i], problem.rhs[i]
    if not ((rel == lp.LE and b >= 0) or (rel == lp.GE and b <= 0)):
        return  # its artificial's phase-one weight changes with k
    assert after.primal == before.primal
    assert after.objective_value == before.objective_value
    if before.ray is not None:
        assert after.ray in (before.ray, tuple([v / k for v in before.ray]))
    if before.dual is not None:
        assert after.dual == tuple([v / k if r == i else v for r, v in enumerate(before.dual)])


#: Positive column scales for ``test_scaling_columns_is_metamorphic``.
COLUMN_SCALES = [F(3, 2), F(5), F(1, 7), F(2, 9), F(11, 4), F(1), F(6, 5)]


def test_scaling_columns_is_metamorphic():
    """Scaling each variable's column (its objective and row coefficients)
    by c_j > 0 keeps every sign Bland's rule reads and every ratio order its
    ratio test compares, and leaves the artificial columns alone, so the
    pivot path is the same: status, objective, duals and feasibility match,
    the primal is divided by c column by column, and the ray matches that
    up to a positive factor (it is normalised on its entering column).
    The node LPs in ``market`` rely on this to share one solve among
    positively proportional nodes.  Each seeded LP is solved as drawn and
    with every other variable free."""
    rng = random.Random(14)
    for problem in oracles.seeded_lps():
        n = problem.num_vars
        for free in (problem.free, range(1, n, 2)):
            c = [rng.choice(COLUMN_SCALES) for _ in range(n)]
            given = lp.LpProblem(problem.objective, problem.rows, problem.relations,
                                 problem.rhs, free=free, sense=problem.sense)
            scaled = lp.LpProblem([o * k for o, k in zip(problem.objective, c)],
                                  [[a * k for a, k in zip(row, c)] for row in problem.rows],
                                  problem.relations, problem.rhs, free=free,
                                  sense=problem.sense)
            before, after = lp.solve(given), lp.solve(scaled)
            assert after.status == before.status
            assert after.objective_value == before.objective_value
            assert after.dual == before.dual
            assert lp.feasible(scaled) == lp.feasible(given)
            if before.primal is not None:
                assert after.primal == tuple([x / k for x, k in zip(before.primal, c)])
            if before.ray is not None:
                ray = [r / k for r, k in zip(before.ray, c)]
                factor = next(a / r for a, r in zip(after.ray, ray) if r)
                assert factor > 0 and after.ray == tuple([factor * r for r in ray])


def test_swapping_the_sense_of_a_negated_objective_is_metamorphic():
    """max c·x and min (−c)·x give phase two the same integer costs, so the
    pivot path is the same: status, primal, ray and a Farkas vector stay, and
    the optimal value and duals are negated exactly."""
    for problem in oracles.seeded_lps():
        swapped = lp.LpProblem([-c for c in problem.objective], problem.rows,
                               problem.relations, problem.rhs, free=problem.free,
                               sense=lp.MINIMIZE if problem.sense == lp.MAXIMIZE
                               else lp.MAXIMIZE)
        before, after = lp.solve(problem), lp.solve(swapped)
        assert (after.status, after.primal, after.ray) == (
            before.status, before.primal, before.ray)
        if before.status == lp.OPTIMAL:
            assert after.objective_value == -before.objective_value
            assert after.dual == tuple([-v for v in before.dual])
        else:
            assert after.dual == before.dual
            assert after.objective_value is None


def test_negating_an_inequality_row_is_metamorphic():
    """A ≤ or ≥ row with nonzero rhs, negated with its relation swapped, is
    normalised to the same tableau row, so only that row's multiplier changes:
    it is negated."""
    rng = random.Random(17)
    cases = 0
    for problem in oracles.seeded_lps():
        rows = [i for i, (rel, b) in enumerate(zip(problem.relations, problem.rhs))
                if rel != lp.EQ and b != 0]
        if not rows:
            continue
        i = rng.choice(rows)
        negated = lp.LpProblem(
            problem.objective,
            [[-a for a in row] if r == i else row for r, row in enumerate(problem.rows)],
            [{lp.LE: lp.GE, lp.GE: lp.LE}[rel] if r == i else rel
             for r, rel in enumerate(problem.relations)],
            [-b if r == i else b for r, b in enumerate(problem.rhs)],
            free=problem.free, sense=problem.sense)
        before, after = lp.solve(problem), lp.solve(negated)
        assert dataclasses.replace(after, dual=None) == dataclasses.replace(before, dual=None)
        if before.dual is not None:
            assert after.dual == tuple([-v if r == i else v for r, v in enumerate(before.dual)])
        cases += 1
    assert cases == 471


@settings(max_examples=80, deadline=None)
@given(problem=lp_problems())
def test_integer_rows_restate_the_fraction_rows(problem):
    """Each start tableau row is its problem row, one stored integer per
    variable (a free one as +x), and rhs as integers over one scale, the
    lcm of their denominators, which the row's slack or artificial column
    carries; a flipped row is negated."""
    sx = lp._Simplex(problem)
    n = problem.num_vars
    assert sx.nonbasic[:n] == list(range(n))
    for k, (row, b) in enumerate(zip(problem.rows, problem.rhs)):
        scale = sx.col_scale[sx.ident_col[k]]
        t = [-a for a in sx.T[k]] if sx.flipped[k] else sx.T[k]
        assert [F(a, scale) for a in t[:n]] + [F(t[-1], scale)] == [*row, b]
        assert scale == math.lcm(*[v.denominator for v in (*row, b)])


def test_each_row_becomes_integers_once_per_solve(monkeypatch):
    """The constructor converts each row and the objective once; ``solve``
    and ``feasible`` then convert nothing: the tableau reads the stored
    integers.  ``from_integers`` converts no row."""
    calls = []
    to_integers = lp.to_integers

    def counted(values):
        calls.append(list(values))
        return to_integers(values)

    monkeypatch.setattr(lp, "to_integers", counted)
    p = lp.LpProblem([1, F(1, 2)], [[1, 1], [F(1, 3), -1], [1, 0]], ["<=", ">=", "=="],
                     [4, F(-1, 2), F(3, 2)], sense="min")
    rows = [[*row, b] for row, b in zip(p.rows, p.rhs)]
    assert sorted(calls) == sorted([*rows, list(p.objective)])
    calls.clear()
    assert lp.solve(p).status == lp.OPTIMAL
    assert calls == []
    assert lp.feasible(p)
    assert calls == []
    lp.LpProblem.from_integers(p.int_objective, p.int_rows, p.relations, sense=p.sense)
    assert calls == []


def test_solve_builds_no_fraction_until_a_view_is_read(monkeypatch):
    """``solve`` returns integers: on each seeded LP, as drawn and with
    every other variable free, it builds no ``Fraction`` until a rational
    view of its outcome is read, and each integer view, over its
    denominator, is its ``Fraction`` view."""
    problems = [*oracles.seeded_lps(), *every_other_free(oracles.seeded_lps())]
    built = []

    def counted(*args):
        built.append(args)
        return F(*args)

    for module in (lp, rationals):  # the views are built by ``rationals.fractions_over``
        monkeypatch.setattr(module, "Fraction", counted)
    outcomes = [lp.solve(p) for p in problems]
    assert built == []
    for out in outcomes:
        for ints, view in [(out.int_primal, out.primal), (out.int_dual, out.dual),
                           (out.int_ray, out.ray)]:
            assert (ints is None) == (view is None)
            if ints is not None:
                values, den = ints
                assert den > 0 and tuple([F(v, den) for v in values]) == view
        assert (out.int_value is None) == (out.objective_value is None)
        if out.int_value is not None:
            assert out.int_value[1] > 0 and F(*out.int_value) == out.objective_value
    assert built
    statuses = {out.status for out in outcomes}
    assert statuses == {lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE}


def test_integer_entry_point_poses_the_same_problem():
    """``from_integers`` on each seeded LP's stored pairs gives the problem
    the rational constructor gave, and so the same outcome; each row and
    the objective given at k times its lowest terms are divided back by the
    gcd, which keeps each artificial's phase-one cost −1/s and so the pivot
    path."""
    rng = random.Random(7)
    for problem in oracles.seeded_lps():
        outcome = lp.solve(problem)
        for k in (1, rng.randint(2, 9)):
            rows = [([k * a for a in ints], k * s) for ints, s in problem.int_rows]
            ints, den = problem.int_objective
            given = lp.LpProblem.from_integers(([k * c for c in ints], k * den), rows,
                                               problem.relations, free=problem.free,
                                               sense=problem.sense)
            assert given == problem and hash(given) == hash(problem)
            assert (given.rows, given.rhs) == (problem.rows, problem.rhs)
            assert lp.solve(given) == outcome


def test_stored_rows_are_in_lowest_terms():
    """Each stored pair, the objective's too, has a positive scale, in
    lowest terms with its integers, and reads back as its rational row."""
    p = lp.LpProblem.from_integers(([2, 2], 2), [([4, 6, 2], 8), ([0, 0, 0], 5),
                                                 ([-3, 0, 3], 3)], ["<=", ">=", "=="])
    assert p.int_objective == ((1, 1), 1) and p.objective == (F(1), F(1))
    assert p.int_rows == (((2, 3, 1), 4), ((0, 0, 0), 1), ((-1, 0, 1), 1))
    assert p.rows == ((F(1, 2), F(3, 4)), (F(0), F(0)), (F(-1), F(0)))
    assert p.rhs == (F(1, 4), F(0), F(1))
    assert p == lp.LpProblem([1, 1], p.rows, p.relations, p.rhs)


@pytest.mark.parametrize("rows, relations, message", [
    ([([1, 1], 0)], ["<="], "row 0 has scale 0, expected an integer > 0"),
    ([([1, 1], -2)], ["<="], "row 0 has scale -2, expected an integer > 0"),
    ([([1, 1], F(1))], ["<="], "expected an integer > 0"),
    ([([1, 1], 1), ([1, 2, 1], 1)], ["<=", "<="], "row 1 has 2 coefficients, expected 1"),
    ([([1], 1)], ["<="], "row 0 has 0 coefficients, expected 1"),
    ([([1, 1], 1)], ["<"], "unknown relation '<'"),
    ([([1, 1], 1)], [], "1 rows but 0 relations"),
    ([([F(1, 2), 1], 1)], ["<="], "row 0 has an entry that is not an integer"),
    ([([1.0, 1], 1)], ["<="], "row 0 has an entry that is not an integer"),
], ids=["zero-scale", "negative-scale", "fraction-scale", "long-row", "short-row",
        "relation", "relation-count", "fraction-entry", "float-entry"])
def test_integer_entry_point_validation(rows, relations, message):
    with pytest.raises(StructureError, match=message):
        lp.LpProblem.from_integers(([1], 1), rows, relations)


@pytest.mark.parametrize("objective, rows, message", [
    (([1], 0), [([1, 1], 1)], "objective has scale 0, expected an integer > 0"),
    (([F(1, 2)], 1), [([1, 1], 1)], "objective has an entry that is not an integer"),
    ([1], [([1, 1], 1)], r"objective is not an \(integers, scale\) pair"),
    (([1], 1), [[1, 1, 1]], r"row 0 is not an \(integers, scale\) pair"),
    (([1, 2], 1), [([1, 1], 1)], "row 0 has 1 coefficients, expected 2"),
], ids=["objective-scale", "objective-entry", "objective-shape", "row-shape", "objective-length"])
def test_integer_objective_validation(objective, rows, message):
    with pytest.raises(StructureError, match=message):
        lp.LpProblem.from_integers(objective, rows, ["<="])


def test_feasible_agrees_with_solve():
    for problem in oracles.seeded_lps():
        assert lp.feasible(problem) == (lp.solve(problem).status != lp.INFEASIBLE)


@pytest.mark.parametrize("kwargs, message", [
    (dict(free=[1]), r"free variables must be indices in range\(1\)"),
    (dict(free=[-1]), r"free variables must be indices in range\(1\)"),
    (dict(free=[F(0)]), r"free variables must be indices in range\(1\)"),
    (dict(sense="maximize"), "sense must be 'max' or 'min'"),
], ids=["free-range", "free-negative", "free-type", "sense"])
def test_input_validation_raises(kwargs, message):
    with pytest.raises(StructureError, match=message):
        lp.LpProblem([1], [[1]], ["<="], [1], **kwargs)
