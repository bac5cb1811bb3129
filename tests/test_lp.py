import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from noarb import lp
from noarb.errors import StructureError

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
    upper = [draw(st.one_of(st.none(), st.fractions(min_value=0, max_value=4,
                                                    max_denominator=3)))
             for _ in range(n)]
    sense = draw(st.sampled_from(["max", "min"]))
    return lp.LpProblem([draw(small) for _ in range(n)], rows, rels, rhs,
                        lower=lower, upper=upper, sense=sense)


def assert_fractions(*vectors):
    """Every returned number is a plain ``fractions.Fraction``."""
    for vector in vectors:
        if vector is not None:
            assert all(type(v) is F for v in vector), vector


def assert_outcome_fractions(outcome):
    assert_fractions(outcome.primal, outcome.dual, outcome.upper_duals, outcome.ray)
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


def test_contradictory_bounds_infeasible_with_certificate():
    p = lp.LpProblem([1], [[-1], [1]], ["<=", "<="], [-1, 0])
    out = lp.solve(p)
    assert out.status == lp.INFEASIBLE
    assert lp.check_farkas(p, out.dual, out.upper_duals)


def test_unbounded_with_ray():
    p = lp.LpProblem([1, 0], [[1, -1]], ["<="], [0])
    out = lp.solve(p)
    assert out.status == lp.UNBOUNDED
    assert out.ray == (F(1), F(1))
    assert lp.check_ray(p, out)


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


def test_feasibility_witness():
    p = lp.LpProblem([0], [[1]], ["=="], [F(1, 3)])
    res = lp.feasible(p)
    assert res.feasible
    assert res.witness == (F(1, 3),)
    assert_fractions(res.witness)
    ineq = lp.LpProblem([0], [[1]], [">="], [F(1, 3)])
    res = lp.feasible(ineq)
    assert res.feasible and lp.is_feasible_point(ineq, res.witness)
    assert_fractions(res.witness)


def test_feasibility_certificate():
    p = lp.LpProblem([0], [[1], [1]], [">=", "<="], [1, 0])
    res = lp.feasible(p)
    assert not res.feasible
    assert lp.check_farkas(p, res.certificate, res.upper_certificate)
    assert_fractions(res.certificate, res.upper_certificate)


def test_binomial_martingale_system_witness():
    # 2q + (1-q)/2 = 1 over q in [0,1]: the unique solution is q = 1/3
    p = lp.LpProblem(
        [0, 0],
        [[2, F(1, 2)], [1, 1]],
        ["==", "=="],
        [1, 1],
    )
    res = lp.feasible(p)
    assert res.feasible
    assert res.witness == (F(1, 3), F(2, 3))
    assert_fractions(res.witness)


def test_minimize_sense_duality():
    p = lp.LpProblem([2, 3], [[1, 1], [1, -1]], ["==", ">="], [1, F(1, 2)],
                     lower=[None, 0], sense="min")
    out = lp.solve(p)
    assert out.status == lp.OPTIMAL
    assert out.objective_value == 2
    assert lp.check_optimal(p, out)


def test_finite_upper_bounds_enter_dual_objective():
    p = lp.LpProblem([1, 1], [[1, 2]], ["<="], [4], upper=[F(1, 3), None])
    out = lp.solve(p)
    assert out.status == lp.OPTIMAL
    assert out.primal == (F(1, 3), F(11, 6))
    assert lp.check_optimal(p, out)


def test_upper_bound_below_zero_is_infeasible():
    p = lp.LpProblem([1], [], [], [], upper=[F(-1)])
    out = lp.solve(p)
    assert out.status == lp.INFEASIBLE
    assert lp.check_farkas(p, out.dual, out.upper_duals)


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


def random_problem(rng, max_dim=6):
    n = rng.randint(1, max_dim)
    m = rng.randint(1, max_dim)
    def coeff():
        return F(rng.randint(-6, 6), rng.randint(1, 4))
    rows = [[coeff() for _ in range(n)] for _ in range(m)]
    rels = [rng.choice(["<=", "==", ">="]) for _ in range(m)]
    rhs = [coeff() for _ in range(m)]
    upper = [F(rng.randint(1, 5)) if rng.random() < 0.2 else None for _ in range(n)]
    sense = rng.choice(["max", "min"])
    obj = [coeff() for _ in range(n)]
    return lp.LpProblem(obj, rows, rels, rhs, upper=upper, sense=sense)


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
        p = lp.LpProblem(
            [coeff() for _ in range(n)],
            [[coeff() for _ in range(n)] for _ in range(m)],
            [rng.choice(["<=", "==", ">="]) for _ in range(m)],
            [coeff() for _ in range(m)],
            lower=[None if rng.random() < 0.5 else F(0) for _ in range(n)],
            upper=[F(rng.randint(1, 4)) if rng.random() < 0.2 else None for _ in range(n)],
            sense=rng.choice(["max", "min"]),
        )
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
