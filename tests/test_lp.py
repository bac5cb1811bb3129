import dataclasses
import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from noarb import lab, lp
from noarb.errors import StructureError

import global_routes
import oracles

small = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def lp_problems(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    rows = [[draw(small) for _ in range(n)] for _ in range(m)]
    rels = [draw(st.sampled_from(["<=", "==", ">="])) for _ in range(m)]
    rhs = [draw(small) for _ in range(m)]
    lower = [draw(st.sampled_from([F(0), None])) for _ in range(n)]
    caps = [draw(st.one_of(st.none(), st.fractions(min_value=0, max_value=4,
                                                   max_denominator=3)))
            for _ in range(n)]
    sense = draw(st.sampled_from(["max", "min"]))
    return lp.LpProblem([draw(small) for _ in range(n)],
                        *oracles.add_caps(rows, rels, rhs, caps),
                        lower=lower, sense=sense)


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
    assert not lp.check_outcome(ray, dataclasses.replace(out, status="bounded"))


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
                     lower=[None, 0], sense="min")
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
        lp.LpProblem([1], [[1]], ["<="], [1], lower=[F(1)])
    # one spelling per relation, and a bound x_j <= u is a row, not a keyword
    with pytest.raises(StructureError):
        lp.LpProblem([1], [[1]], ["="], [1])
    with pytest.raises(TypeError):
        lp.LpProblem([1], [[1]], ["<="], [1], upper=[1])


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
    # the vertex oracle needs x >= 0, so free-variable problems are checked
    # through their certificates, which re-derive everything independently
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
        lower = [None if rng.random() < 0.5 else F(0) for _ in range(n)]
        caps = [F(rng.randint(1, 4)) if rng.random() < 0.2 else None for _ in range(n)]
        p = lp.LpProblem(obj, *oracles.add_caps(rows, rels, rhs, caps), lower=lower,
                         sense=rng.choice(["max", "min"]))
        out = lp.solve(p)
        statuses.add(out.status)
        assert lp.check_outcome(p, out)
        assert_outcome_fractions(out)
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
    corpus = corpus_outcomes(monkeypatch)
    assert len(corpus) == 626
    assert outcome_digest(corpus) == CORPUS_DIGEST


SEEDED_DIGEST = "58e0f74769c8baddc392be57e5fd68f3d32c2c01e9c02ef4087c2738bc69a4ce"
CORPUS_DIGEST = "35c8a17bf6faef89955cd74fa9a36b86d4b5bc548d54b75632c18df582d19954"


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


def test_redundant_row_deleted_then_pivots_continue(monkeypatch):
    pivots = exact_steps(monkeypatch)
    p = lp.LpProblem([1, 2], [[F(1, 2), F(1, 2)], [1, 1], [1, -1]], ["==", "==", "<="],
                     [F(1, 2), 1, F(1, 3)])
    sx = lp._Simplex(p)
    assert sx._phase_one() is None
    assert sx.alive == [0, 2]  # the duplicated row is gone
    assert sx._run_phase(sx._objective_costs(p), sx.first_art)[0] == lp.OPTIMAL
    assert len(pivots) == 3  # two in phase one, one after the deletion
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
                          lower=problem.lower, sense=problem.sense)
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
        for lower in (problem.lower, [None if j % 2 else F(0) for j in range(n)]):
            c = [rng.choice(COLUMN_SCALES) for _ in range(n)]
            given = lp.LpProblem(problem.objective, problem.rows, problem.relations,
                                 problem.rhs, lower=lower, sense=problem.sense)
            scaled = lp.LpProblem([o * k for o, k in zip(problem.objective, c)],
                                  [[a * k for a, k in zip(row, c)] for row in problem.rows],
                                  problem.relations, problem.rhs, lower=lower,
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
                               problem.relations, problem.rhs, lower=problem.lower,
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
            lower=problem.lower, sense=problem.sense)
        before, after = lp.solve(problem), lp.solve(negated)
        assert dataclasses.replace(after, dual=None) == dataclasses.replace(before, dual=None)
        if before.dual is not None:
            assert after.dual == tuple([-v if r == i else v for r, v in enumerate(before.dual)])
        cases += 1
    assert cases == 471


@settings(max_examples=80, deadline=None)
@given(problem=lp_problems())
def test_integer_rows_restate_the_fraction_rows(problem):
    """Each start tableau row is its problem row and rhs as integers over
    one scale, the lcm of their denominators, which the row's slack or
    artificial column carries; a flipped row is negated."""
    sx = lp._Simplex(problem)
    for k, (row, b) in enumerate(zip(problem.rows, problem.rhs)):
        scale = sx.col_scale[sx.ident_col[k]]
        t = [-a for a in sx.T[k]] if sx.flipped[k] else sx.T[k]
        assert [F(t[pc], scale) for pc, _ in sx.col_pairs] + [F(t[-1], scale)] == [*row, b]
        assert all(t[nc] == -t[pc] for pc, nc in sx.col_pairs if nc is not None)
        assert scale == math.lcm(*[v.denominator for v in (*row, b)])


def test_each_row_becomes_integers_once_per_solve(monkeypatch):
    """``solve`` converts each row and the objective once, ``feasible`` each
    row once; no phase converts a cost vector."""
    calls = []
    to_integers = lp.to_integers

    def counted(values):
        calls.append(list(values))
        return to_integers(values)

    monkeypatch.setattr(lp, "to_integers", counted)
    p = lp.LpProblem([1, F(1, 2)], [[1, 1], [F(1, 3), -1], [1, 0]], ["<=", ">=", "=="],
                     [4, F(-1, 2), F(3, 2)], sense="min")
    rows = [[*row, b] for row, b in zip(p.rows, p.rhs)]
    assert lp.solve(p).status == lp.OPTIMAL
    assert sorted(calls) == sorted(rows + [list(p.objective)])
    calls.clear()
    assert lp.feasible(p)
    assert sorted(calls) == sorted(rows)


def test_feasible_agrees_with_solve():
    for problem in oracles.seeded_lps():
        assert lp.feasible(problem) == (lp.solve(problem).status != lp.INFEASIBLE)
