"""Acceptance suite: one test per criterion, every assertion exact.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output); a failure of any assertion fails the criterion.  There
are no tolerances anywhere: all comparisons are over exact rationals.
"""

import json
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

from noarb import lab, lp
from noarb.concepts import full_verdict
from noarb.cli import main
from noarb.market import (
    check_na,
    check_na1,
    find_emm,
    is_martingale_measure,
    payoff_cone,
    superreplication_price,
    terminal_gain,
)
from noarb.separation import strict_separator, strict_separator_exists

import global_routes
import oracles

HERE = Path(__file__).parent


import pytest


@pytest.fixture
def report(capsys):
    """Print the criterion's one-line verdict past pytest's capture."""
    def emit(name, detail):
        with capsys.disabled():
            print(f"PASS {name}: {detail}")
    return emit


def test_acceptance_ftap_cross_check(report):
    """1000 seeded markets: NA, NA1, NUPBR, EMM and separator routes agree."""
    rng = random.Random(0)
    started = time.perf_counter()
    holds = fails = witnesses = 0
    for _ in range(1000):
        model = lab.random_market(rng)  # <= 8 outcomes, <= 3 periods, <= 2 assets
        verdicts = full_verdict(model)  # raises InternalInconsistency on any disagreement
        assert verdicts.agree
        if verdicts.na:
            holds += 1
            measure = find_emm(model).measure
            assert measure.is_equivalent and is_martingale_measure(model, measure)
            # the classical FTAP: the strict separator is itself an
            # equivalent martingale measure, checked apart from find_emm
            q = strict_separator(payoff_cone(model)).measure
            assert q.is_equivalent and is_martingale_measure(model, q)
            assert all(q.expectation(g.vector) == 0
                       for g in global_routes.elementary_gains(model))
            witnesses += 2
        else:
            fails += 1
            payoff = terminal_gain(model, verdicts.arbitrage)
            assert payoff.is_nonneg and not payoff.is_zero
            witnesses += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    report("FTAP cross-check",
            f"1000 markets, 0 disagreements ({holds} arbitrage-free, {fails} with "
            f"arbitrage), {witnesses} witnesses re-verified, {elapsed:.1f}s")


def test_acceptance_node_and_global_routes_agree(report):
    """1000 seeded markets: the node routes and the whole-market LPs agree on
    NA, EMM existence and the exact price of every indicator and a payoff."""
    rng = random.Random(0)
    payoff_rng = random.Random(4)
    prices = minus_inf = 0
    for _ in range(1000):
        model = lab.random_market(rng)
        na = check_na(model).holds
        assert na == global_routes.check_na(model).holds
        assert (find_emm(model).measure is not None) == na
        assert (global_routes.find_emm(model).measure is not None) == na
        payoffs = model.space.indicators() + [model.space.variable(
            [F(payoff_rng.randint(0, 12), payoff_rng.randint(1, 6))
             for _ in model.space.outcomes])]
        for payoff in payoffs:
            price = superreplication_price(model, payoff).price
            assert price == global_routes.superreplication_price(model, payoff).price
            prices += 1
            minus_inf += price == -math.inf
    report("node and global routes",
           f"1000 markets, NA and EMM verdicts equal, {prices} prices equal "
           f"({minus_inf} of them -inf)")


def test_acceptance_na1_and_separator_routes_agree(report):
    """1000 seeded markets: NA₁ from one-step child-indicator prices equals
    the per-outcome indicator prices, and separator existence by exhaustion
    equals the strict separator's answer."""
    rng = random.Random(0)
    na1_holds = separated = 0
    for _ in range(1000):
        model = lab.random_market(rng)
        na1 = check_na1(model)
        assert na1 == global_routes.check_na1(model)
        cone = payoff_cone(model)
        exists = strict_separator_exists(cone)
        assert exists == (strict_separator(cone).measure is not None)
        na1_holds += na1
        separated += exists
    report("NA1 and separator routes",
           f"1000 markets, NA1 verdicts equal ({na1_holds} hold), separator "
           f"existence equal ({separated} exist)")


def test_acceptance_pricing_duality(report):
    """Superreplication price equals the best martingale-vertex expectation."""
    rng = random.Random(1)
    models = 0
    payoffs_checked = 0
    while models < 200:
        model = lab.random_market(rng, max_outcomes=4, max_periods=1)
        if not check_na(model).holds:
            continue
        models += 1
        vertices = oracles.martingale_polytope_vertices(model)
        assert vertices, "an arbitrage-free market has martingale measures"
        for _ in range(5):
            payoff = model.space.variable(
                [F(rng.randint(0, 12), rng.randint(1, 6)) for _ in model.space.outcomes])
            price = superreplication_price(model, payoff).price
            best = max(
                sum(q[i] * payoff.values[i] for i in range(len(q)))
                for q in vertices)
            assert price == best
            payoffs_checked += 1
    report("pricing duality",
            f"{models} one-period NA markets, {payoffs_checked} payoffs, exact equality")


def test_acceptance_binomial_golden_values(binomial, report):
    """EMM (1/3, 2/3) and call price 1/3 for the u=2, d=1/2, S0=1 model."""
    measure = find_emm(binomial).measure
    assert measure.weights == (F(1, 3), F(2, 3))
    call = binomial.space.variable([1, 0])
    result = superreplication_price(binomial, call)
    assert result.price == F(1, 3)
    assert measure.expectation(call) == F(1, 3)
    report("binomial golden values", "q = (1/3, 2/3) and call price 1/3, exact")


def test_acceptance_counterexample_reports(report):
    """Norm sup N^2 vs indicator gauge 1/N with trivial scaling intersection."""
    for n in (1, 3, 10, 100):
        summary = lab.counterexample_report(n)
        assert summary.sup_squared_l2 == n * n
        assert summary.min_indicator_gauge == F(1, n)
        assert summary.zero_set_trivial
    report("counterexample report", "N in {1, 3, 10, 100}: N^2 / 1/N / trivial, exact")


def test_acceptance_lemma_suite(report):
    """verify_lemma_suite(seed=0, instances=100) reports zero violations."""
    result = lab.verify_lemma_suite(seed=0, instances=100)
    assert result.passed, result.summary()
    total = sum(result.checks.values())
    report("lemma suite", f"100 instances, {total} exact checks, zero violations")


def test_acceptance_lp_certification(report):
    """500 random LPs: optimum equals BFS enumeration; certificates re-verify."""
    optimal = unbounded = infeasible = 0
    for problem in oracles.seeded_lps():
        outcome = lp.solve(problem)
        assert lp.check_outcome(problem, outcome)
        assert lp.feasible(problem) == (outcome.status != lp.INFEASIBLE)
        if outcome.status == lp.OPTIMAL:
            optimal += 1
            assert outcome.objective_value == oracles.best_vertex_value(problem)
        elif outcome.status == lp.INFEASIBLE:
            infeasible += 1
            assert oracles.basic_feasible_points(problem) == []
        else:
            unbounded += 1
            assert oracles.basic_feasible_points(problem) != []
    report("LP certification",
            f"500 LPs ({optimal} optimal, {unbounded} unbounded, {infeasible} infeasible), "
            f"all vs brute force, all certificates re-verified")


def test_acceptance_witness_soundness(report):
    """Every emitted arbitrage, measure and separator re-verifies exactly."""
    rng = random.Random(3)
    checked = 0
    for _ in range(150):
        model = lab.random_market(rng, max_outcomes=6, max_periods=2)
        emm = find_emm(model)
        if emm.measure is not None:
            assert emm.measure.is_equivalent
            assert is_martingale_measure(model, emm.measure)
        else:
            payoff = terminal_gain(model, emm.arbitrage)
            assert payoff.is_nonneg and not payoff.is_zero
        cone = payoff_cone(model)
        sep = strict_separator(cone)
        if sep.measure is not None:
            assert sep.measure.is_equivalent
            assert all(sep.measure.expectation(g) <= 0 for g in cone.generators)
            assert all(sep.measure.expectation(h) == 0 for h in cone.span)
        else:
            assert sep.violating is not None
        checked += 1
    report("witness soundness", f"{checked} models, zero re-verification failures")


def test_acceptance_cli_contract(capsys, report):
    """Golden-file byte equality and the exit-code taxonomy for each command."""
    data = HERE / "data"
    golden = HERE / "golden"
    runs = [
        ("check_all_binomial", 0, ["check", "all", str(data / "binomial.json")]),
        ("emm_trinomial", 0, ["emm", str(data / "trinomial.json")]),
        ("check_na_dominance", 1, ["check", "na", str(data / "dominance.json")]),
        ("price_binomial_call", 0, ["price", str(data / "binomial.json"),
                                    str(data / "call_payoff.json")]),
        ("counterexample_3", 0, ["counterexample", "--n", "3"]),
        ("verify_seed0", 0, ["verify", "--seed", "0", "--instances", "5"]),
        ("separate_gen", 0, ["separate", str(data / "cone_with_gen.json")]),
    ]
    for name, expected_exit, argv in runs:
        code = main(["--json", *argv])
        out = capsys.readouterr().out
        assert code == expected_exit, name
        assert out == (golden / f"{name}.json").read_text(), name
        json.loads(out)
    assert main(["check", "na", str(data / "truncated.json")]) == 2
    assert main(["counterexample", "--n", "0"]) == 2
    capsys.readouterr()
    report("CLI contract",
           f"{len(runs)} golden reports byte-stable, exit codes 0/1/2 honored")
