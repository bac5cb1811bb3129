import dataclasses
import hashlib
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from noarb import lab, lattice, lp, market
from noarb.cli import main
from noarb.concepts import full_verdict
from noarb.errors import InternalInconsistency, StructureError
from noarb.fileio import load_market
from noarb.lattice import Measure, SampleSpace
from noarb.market import (
    Asset,
    Filtration,
    MarketModel,
    NaResult,
    Strategy,
    check_na,
    check_na1,
    check_nupbr,
    emm_budget,
    find_emm,
    in_budget_set,
    is_martingale_measure,
    martingale_residuals,
    payoff_cone,
    superreplication_price,
    terminal_gain,
)
from noarb.rationals import to_integers

import global_routes
import oracles
from conftest import MARKET_FILES, additive_tree, crr_tree, one_period_model, trinomial_tree

DATA = Path(__file__).parent / "data"


# --- filtration and model validation ---------------------------------------

def test_filtration_must_refine():
    space = SampleSpace(["a", "b", "c"], [F(1, 3)] * 3)
    with pytest.raises(StructureError):
        Filtration(space, [[["a", "b", "c"]], [["a", "b"], ["c"]], [["a", "c"], ["b"]]])
    with pytest.raises(StructureError):  # t=0 not trivial
        Filtration(space, [[["a"], ["b", "c"]], [["a"], ["b"], ["c"]]])
    with pytest.raises(StructureError):  # final partition too coarse
        Filtration(space, [[["a", "b", "c"]], [["a", "b"], ["c"]]])
    with pytest.raises(StructureError, match="lists an outcome twice"):
        Filtration(space, [[["a", "a", "b", "c"]], [["a"], ["b"], ["c"]]])


def test_model_requires_adapted_nonneg_paths():
    space = SampleSpace(["a", "b"], [F(1, 2), F(1, 2)])
    filtration = Filtration.single_period(space)
    with pytest.raises(StructureError):  # X_0 not constant on the trivial cell
        MarketModel(filtration, [Asset("S", (space.variable([1, 2]), space.variable([1, 2])))])
    with pytest.raises(StructureError):  # negative price
        MarketModel(filtration, [Asset("S", (space.constant(1), space.variable([1, -1])))])


def test_a_price_that_differs_within_a_cell_is_not_adapted():
    space = SampleSpace(["a", "b", "c", "d"], [F(1, 4)] * 4)
    filtration = Filtration(space, [[["a", "b", "c", "d"]], [["a"], ["b", "c", "d"]],
                                    [["a"], ["b"], ["c"], ["d"]]])
    adapted = space.variable([3, 1, 1, 1])
    path = (space.constant(2), adapted, space.variable([4, 2, 1, F(1, 2)]))
    assert MarketModel(filtration, [Asset("S", path)]).horizon == 2
    for t, values in ((0, [2, 2, 2, 3]), (1, [3, 1, 1, F(3, 2)]), (1, [3, 1, F(1, 2), 1])):
        bad = list(path)
        bad[t] = space.variable(values)  # the last or a middle price of one cell differs
        with pytest.raises(StructureError, match=rf"^asset 'B' is not adapted at t={t}$"):
            MarketModel(filtration, [Asset("S", path), Asset("B", tuple(bad))])


# --- terminal gain ----------------------------------------------------------

def test_zero_strategy_zero_payoff(binomial):
    assert Strategy().holdings == ()
    assert terminal_gain(binomial, Strategy()).is_zero


def test_binomial_one_unit_gain(binomial):
    hold_one = Strategy({(1, 0, 0): 1})
    assert terminal_gain(binomial, hold_one).values == (F(1), F(-1, 2))


def test_strategy_equality_ignores_zeros_and_order():
    keyed = Strategy({(2, 0, 1): F(1, 2), (1, 1, 0): -3, (1, 0, 0): 0})
    assert keyed.holdings == (((1, 1, 0), F(-3)), ((2, 0, 1), F(1, 2)))
    same = Strategy([((2, 0, 1), "1/2"), ((2, 1, 0), 0), ((1, 1, 0), F(-3))])
    assert same == keyed and hash(same) == hash(keyed)
    assert keyed + keyed.scale(-1) == Strategy() == keyed.scale(0)
    assert keyed != Strategy({(1, 1, 0): -3})


def test_terminal_gain_linearity(two_period):
    rng = random.Random(3)
    parts = two_period.filtration.partitions
    keys = [(t, a, c) for t in range(1, two_period.horizon + 1)
            for a in range(len(two_period.assets)) for c in range(len(parts[t - 1]))]
    def random_strategy():  # a random subset of the keys, some held at 0
        return Strategy({key: F(rng.randint(-4, 4), rng.randint(1, 3))
                         for key in keys if rng.random() < 0.7})
    for _ in range(10):
        xi, theta = random_strategy(), random_strategy()
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        combined = xi.scale(a) + theta.scale(b)
        lhs = terminal_gain(two_period, combined)
        rhs = terminal_gain(two_period, xi).scale(a) + terminal_gain(two_period, theta).scale(b)
        assert lhs == rhs


def test_strategy_keys_checked_against_the_model(binomial):
    # the binomial market has one period, one asset and one cell at t=0
    for key in [(0, 0, 0), (2, 0, 0), (1, 1, 0), (1, 0, 1), (1, 0, -1)]:
        with pytest.raises(StructureError, match="no \\(t, asset, cell\\) of the model"):
            terminal_gain(binomial, Strategy({(1, 0, 0): 1, key: 1}))


# --- payoff cone ------------------------------------------------------------

def test_binomial_cone_generators(binomial):
    # the one gain spans the cone; it is not stated again as ± generators
    cone = payoff_cone(binomial)
    assert cone.generators == ()
    assert [h.values for h in cone.span] == [(F(1), F(-1, 2))]


def test_two_period_generator_count(two_period):
    # one asset, cells: 1 at t=0 plus 2 at t=1, each gain once
    cone = payoff_cone(two_period)
    assert (len(cone.generators), len(cone.span)) == (0, 3)


def test_constant_asset_generators_all_zero(constant_market):
    # zero gains stay in the span, in order: a separator's duals keep their rows
    cone = payoff_cone(constant_market)
    assert cone.generators == () and cone.span
    assert all(h.is_zero for h in cone.span)


# --- NA ----------------------------------------------------------------------

def test_na_binomial_holds(binomial):
    assert check_na(binomial).holds


def test_na_dominance_fails_with_witness(dominance):
    res = check_na(dominance)
    assert not res.holds
    payoff = terminal_gain(dominance, res.arbitrage)
    assert payoff.is_nonneg and not payoff.is_zero


def test_na_result_holds_iff_it_carries_no_arbitrage(dominance):
    arbitrage = check_na(dominance).arbitrage
    assert NaResult().holds and NaResult().arbitrage is None
    assert not NaResult(arbitrage).holds
    assert NaResult(arbitrage) == NaResult(arbitrage) != NaResult(arbitrage.scale(2))
    assert NaResult(arbitrage) != NaResult()


def test_na_constant_asset(constant_market):
    assert check_na(constant_market).holds


def test_na_two_period(two_period):
    assert check_na(two_period).holds


# --- EMM ----------------------------------------------------------------------

def test_emm_binomial(binomial):
    res = find_emm(binomial)
    assert res.measure is not None
    assert res.measure.weights == (F(1, 3), F(2, 3))
    assert emm_budget(binomial, res.measure) == 1


def test_emm_trinomial_satisfies_equations(trinomial):
    res = find_emm(trinomial)
    q = res.measure
    assert q is not None and q.is_equivalent
    assert market.is_martingale_measure(trinomial, q)
    qu, qm, qd = q.weights
    assert 2 * qu + qm + qd / 2 == 1


def test_emm_dominance_none_with_arbitrage(dominance):
    res = find_emm(dominance)
    assert res.measure is None
    payoff = terminal_gain(dominance, res.arbitrage)
    assert payoff.is_nonneg and not payoff.is_zero


@pytest.mark.parametrize("terminal,status", [
    ([2, F(3, 2)], lp.INFEASIBLE),  # dominance: no martingale measure at all
    ([2, 1], lp.OPTIMAL),  # optimum 0: only the non-equivalent (0, 1) is a martingale
], ids=["infeasible", "optimum_zero"])
def test_emm_arbitrage_from_its_own_certificate(terminal, status, lp_calls, monkeypatch):
    model = one_period_model(terminal)
    monkeypatch.setattr(market, "check_na", None)  # find_emm must not call it
    res = find_emm(model)
    (problem,) = lp_calls
    assert lp.solve(problem).status == status
    assert res.measure is None
    payoff = terminal_gain(model, res.arbitrage)
    assert payoff.is_nonneg and not payoff.is_zero


@pytest.mark.parametrize("source", ["trinomial", "two_period.json"])
def test_emm_lp_has_one_row_per_martingale_equation(source, request, lp_calls):
    """A node's EMM LP is over (s_1..s_k, m): the mass row and one row per
    moving asset, all equalities, with no floor row per child."""
    if source.endswith(".json"):
        model = load_market((DATA / source).read_text())
    else:
        model = request.getfixturevalue(source)
    nodes = market._build_nodes(model)
    reps = [node for i, node in enumerate(nodes) if node.market == i]
    assert find_emm(model).measure is not None
    assert len(lp_calls) == len(reps)
    for problem, node in zip(lp_calls, reps):
        assert problem.num_rows == 1 + len(node.columns)
        assert problem.num_vars == len(node.children) + 1
        assert set(problem.relations) == {"=="}
    if source == "trinomial":
        assert (problem.num_rows, problem.num_vars) == (2, 4)


def test_emm_digest():
    """The measure ``find_emm`` returns, or None, pinned byte for byte: on the
    first 1000 seed-0 markets and on CRR trees with T = 1..6."""
    rng = random.Random(0)
    models = [lab.random_market(rng) for _ in range(1000)]
    models += [crr_tree(T)[0] for T in range(1, 7)]
    measures = [find_emm(model).measure for model in models]
    text = "\n".join(repr(None if q is None else q.weights) for q in measures)
    assert sum(q is not None for q in measures) == EMM_FOUND
    assert hashlib.sha256(text.encode()).hexdigest() == EMM_DIGEST


EMM_FOUND = 147
EMM_DIGEST = "895a977de9590621478b4cd5129a4bbcb754060a5bfc209f1d2ba31f8554ad7a"


def test_a_verified_emm_takes_one_lcm_pass_over_its_weights(monkeypatch):
    """``_verified_emm`` brings the 2^T weights of a CRR tree to one
    denominator once, for ``Measure``'s mass check: ``martingale_residuals``
    reads those integers off the measure."""
    model, _ = crr_tree(10)
    converted = []

    def counted(values):
        converted.append(list(values))
        return to_integers(converted[-1])

    for module in (lattice, market):
        monkeypatch.setattr(module, "to_integers", counted)
    measure = find_emm(model).measure
    assert len(measure.weights) == 1024
    assert converted.count(list(measure.weights)) == 1
    assert measure._int_weights == to_integers(measure.weights)


def test_emm_budget_non_emm_exceeds_one(binomial):
    q = Measure(binomial.space, [F(1, 2), F(1, 2)])
    assert emm_budget(binomial, q) > 1


def test_emm_budget_constant_market(constant_market):
    q = Measure(constant_market.space, [F(1, 4), F(3, 4)])
    assert emm_budget(constant_market, q) == 1


def test_emm_budget_requires_equivalence(binomial):
    with pytest.raises(StructureError):
        emm_budget(binomial, Measure(binomial.space, [1, 0]))


# --- superreplication ---------------------------------------------------------

def test_call_price_binomial(binomial):
    call = binomial.space.variable([1, 0])  # (S_T - 1)^+
    res = superreplication_price(binomial, call)
    assert res.price == F(1, 3)
    assert dict(res.hedge.holdings)[1, 0, 0] == F(2, 3)


def test_zero_payoff_prices_at_zero(binomial):
    assert superreplication_price(binomial, binomial.space.zero()).price == 0


def test_buy_and_hold_replication(binomial):
    s_t = binomial.assets[0].path[-1]
    assert superreplication_price(binomial, s_t).price == 1


def test_negative_payoff_rejected(binomial):
    with pytest.raises(StructureError):
        superreplication_price(binomial, binomial.space.variable([1, -1]))


def test_superreplication_equals_max_over_martingale_vertices(trinomial):
    rng = random.Random(11)
    vertices = oracles.martingale_polytope_vertices(trinomial)
    assert vertices
    for _ in range(6):
        payoff = trinomial.space.variable(
            [F(rng.randint(0, 8), rng.randint(1, 4)) for _ in trinomial.space.outcomes])
        res = superreplication_price(trinomial, payoff)
        best = max(sum(q[i] * payoff.values[i] for i in range(len(q))) for q in vertices)
        assert res.price == best


# --- first-kind concepts --------------------------------------------------------

def test_na1_nupbr_binomial(binomial):
    assert check_na1(binomial)
    assert check_nupbr(binomial)


def test_na1_nupbr_dominance(dominance):
    assert not check_na1(dominance)
    assert not check_nupbr(dominance)


def test_na1_nupbr_constant(constant_market):
    assert check_na1(constant_market)
    assert check_nupbr(constant_market)


def _data_markets():
    return [load_market((DATA / name).read_text()) for name in MARKET_FILES]


def test_budget_routes_match_the_outcome_variable_lp():
    """NUPBR and the budget bound, over the strategy coefficients alone,
    equal the unit budget set's LP with a variable per outcome: on the first
    300 seed-0 markets, CRR trees with T = 2..5 and every market file."""
    models = seed0_markets(300) + [crr_tree(T)[0] for T in range(2, 6)] + _data_markets()
    assert len(models) == 311
    rng = random.Random(22)
    compared = finite = 0
    for model in models:
        n = len(model.space)
        assert check_nupbr(model) == (global_routes.budget_ceiling(model, [1] * n) != math.inf)
        weights = [F(rng.randint(1, 9)) for _ in range(n)]
        measures = [Measure(model.space, [w / sum(weights) for w in weights])]
        assert not is_martingale_measure(model, measures[0])  # seeded, and no EMM
        emm = find_emm(model).measure
        if emm is not None:
            measures.append(emm)
        for q in measures:
            bound = emm_budget(model, q)
            assert bound == global_routes.budget_ceiling(model, q.weights)
            compared += 1
            finite += bound != math.inf
    assert (compared, finite) == (369, 116)


@pytest.mark.parametrize("T", [5, 6, 7])
def test_na1_solves_one_lp_per_distinct_market(T, lp_calls):
    # each node's one-step EMM is positive at both children, so the LP for
    # the first child's indicator covers the second as well; every CRR node
    # moves S by (S, -S/2), a positive multiple of the root's (1, -1/2), so
    # the whole tree is one market; the additive tree's node i moves by
    # (i + 1, -1), so each of its 2^T - 1 nodes is a market of its own
    assert check_na1(crr_tree(T)[0])
    assert len(lp_calls) == 1
    lp_calls.clear()
    assert check_na1(additive_tree(T))
    assert len(lp_calls) == 2 ** T - 1


# --- one solve per distinct one-period market -------------------------------


def call_on(model, strike=F(1)):
    return model.space.variable([max(v - strike, 0) for v in model.assets[0].path[-1].values])


def crr_call_keys(T, strike=F(1)):
    """The distinct shapes of (call price after an up move, after a down
    move) over the nodes of ``crr_tree(T)``, from the closed-form price with
    q = 1/3 per up move: the nodes are one market, and child prices that
    differ by cash and a positive factor share one superhedging LP, so one
    for each shape, (1, 0), (0, 1) or (0, 0)."""
    q = F(1, 3)

    def call(s, m):
        return sum(math.comb(m, j) * q ** j * (1 - q) ** (m - j)
                   * max(s * F(2) ** (2 * j - m) - strike, 0) for j in range(m + 1))

    pairs = {(call(2 * s, T - t), call(s / 2, T - t))
             for t in range(1, T + 1) for s in {F(2) ** (2 * u - t + 1) for u in range(t)}}
    return {(int(up > down), int(down > up)) for up, down in pairs}


@pytest.mark.parametrize("T", [2, 3, 4, 5, 6, 9])
def test_crr_solves_once_per_distinct_market(T, lp_calls):
    # the 2^T - 1 nodes are one market, so NA and the EMM take one LP each;
    # the call takes one per shape of child prices, shared across node
    # prices, times and spreads: a node whose call is worth more after the
    # up move, and one where it is worth 0 after both (13, 15 and 22 pairs
    # of child prices at T = 5, 6 and 7, and 33 at T = 9)
    model, _ = crr_tree(T)
    assert check_na(model).holds
    assert len(lp_calls) == 1
    lp_calls.clear()
    assert find_emm(model).measure is not None
    assert len(lp_calls) == 1
    lp_calls.clear()
    superreplication_price(model, call_on(model))
    assert len(lp_calls) == len(crr_call_keys(T)) <= 2


def test_row_free_one_step_lp_is_solved_once(lp_calls):
    # a binary tree over 8 outcomes whose price rises on both children of
    # every node at t = 2: each such node is unbounded, so both nodes at
    # t = 1 and the root see only -inf children; those three nodes are
    # distinct markets (up moves 3, 1 and 2, each down move 1)
    space = SampleSpace.uniform(8)
    partitions = [[tuple(range(c * 2 ** (3 - t), (c + 1) * 2 ** (3 - t)))
                   for c in range(2 ** t)] for t in range(4)]
    after_t2 = [14, 14, 12, 12, 11, 11, 8, 8]
    prices = [[10] * 8, [13] * 4 + [9] * 4, after_t2,
              [s + 1 + k % 2 for k, s in enumerate(after_t2)]]
    model = MarketModel(Filtration(space, partitions),
                        [Asset("S", tuple(space.variable(p) for p in prices))])
    nodes = market._built(model, market._build_nodes)
    assert len({node.market for node in nodes if node.t <= 2}) == 3
    result = superreplication_price(model, space.variable(range(8)))
    assert result.price == -math.inf and result.hedge is None
    assert sum(1 for problem in lp_calls if problem.num_rows == 0) == 1


def ungrouped(monkeypatch):
    """Make every node its own market, as if no two were proportional."""
    build = market._build_nodes
    monkeypatch.setattr(market, "_build_nodes", lambda model: tuple(
        [dataclasses.replace(node, market=i, ratio=((1, 1),) * len(node.columns))
         for i, node in enumerate(build(model))]))
    monkeypatch.setattr(market, "_last_model", (None, {}))


def seed0_markets(count):
    rng = random.Random(0)
    return [lab.random_market(rng) for _ in range(count)]


def node_answers(model):
    """Every node route's answer, witnesses and hedge included."""
    return (check_na(model), check_na1(model), find_emm(model),
            superreplication_price(model, call_on(model)))


@pytest.mark.parametrize("build, unique_emm", [
    *[pytest.param(lambda T=T: [crr_tree(T)[0]], True, id=f"crr{T}") for T in range(2, 7)],
    pytest.param(lambda: [trinomial_tree(2)], False, id="trinomial2"),
    # 66 of them have nodes whose columns are proportional but not equal
    pytest.param(lambda: seed0_markets(200), False, id="random200"),
])
def test_shared_solves_change_no_answer(build, unique_emm, lp_calls, monkeypatch):
    models = build()
    answers = [node_answers(model) for model in models]
    shared = len(lp_calls)
    ungrouped(monkeypatch)
    lp_calls.clear()
    assert [node_answers(model) for model in models] == answers
    assert shared < len(lp_calls)
    assert any(na.holds for na, *_ in answers)
    for model, (na, na1, emm, price) in zip(models, answers):
        assert global_routes.check_na(model).holds == na.holds == na1
        assert global_routes.superreplication_price(model, call_on(model)).price == price.price
        if emm.measure is None:
            continue
        reference = global_routes.find_emm(model).measure
        if unique_emm:
            assert reference.weights == emm.measure.weights
        else:  # the whole-market LP may pick another measure
            assert global_routes.is_martingale_measure(model, emm.measure)
            assert market.is_martingale_measure(model, reference)


@pytest.mark.parametrize("down, markets, na", [
    pytest.param((F(2), F(1)), 3, False, id="mirrored"),
    pytest.param((F(4), F(-2)), 2, True, id="doubled"),
])
def test_only_positive_multiples_share_a_solve(down, markets, na, lp_calls):
    # S moves by (2, -1) at the root and by (-2, 1), a negative multiple, at
    # the up node: another market.  The down node moves by (2, 1), an
    # arbitrage that only the sign of the key tells from the root's market,
    # or by (4, -2), twice the root's move: the root's market, ratio 2
    space = SampleSpace.uniform(4)
    partitions = [[(0, 1, 2, 3)], [(0, 1), (2, 3)], [(0,), (1,), (2,), (3,)]]
    prices = [[4] * 4, [6, 6, 3, 3], [4, 7, 3 + down[0], 3 + down[1]]]
    model = MarketModel(Filtration(space, partitions),
                        [Asset("S", tuple(space.variable(p) for p in prices))])
    nodes = market._built(model, market._build_nodes)
    assert len({node.market for node in nodes}) == markets
    assert check_na(model).holds == na
    assert len(lp_calls) == markets
    assert global_routes.check_na(model).holds == na
    if na:
        assert nodes[2].market == 0 and nodes[2].ratio == ((2, 1),)
    payoff = space.variable([3, 0, 1, 2])
    assert (superreplication_price(model, payoff).price
            == global_routes.superreplication_price(model, payoff).price)


def test_static_nodes_with_different_child_counts(lp_calls):
    # no asset moves: the root and node a have 2 children, node b has 3, so b
    # must not take the root's weights although both have no columns
    space = SampleSpace(["a1", "a2", "b1", "b2", "b3"], [F(1, 5)] * 5)
    filtration = Filtration(space, [
        [["a1", "a2", "b1", "b2", "b3"]], [["a1", "a2"], ["b1", "b2", "b3"]],
        [[o] for o in space.outcomes]])
    model = MarketModel(filtration, [Asset("S", (space.constant(1),) * 3)])
    measure = find_emm(model).measure
    assert measure.weights == (F(1, 4), F(1, 4), F(1, 6), F(1, 6), F(1, 6))
    assert len(lp_calls) == 2


def every_route(model):
    """``full_verdict``, then each route and check that reads a model's
    builds, all on the one model."""
    verdicts = full_verdict(model)
    n = len(model.space)
    measure = find_emm(model).measure or Measure(model.space, [F(1, n)] * n)
    hedge = superreplication_price(model, model.assets[0].path[-1]).hedge
    terminal_gain(model, hedge or verdicts.arbitrage)
    market.martingale_residuals(model, measure)


def count_builds(monkeypatch, name, models):
    """The models ``market.<name>`` builds for while ``every_route`` runs on
    each of ``models`` in turn."""
    build, built = getattr(market, name), []

    def counted(model):
        built.append(model)
        return build(model)

    monkeypatch.setattr(market, name, counted)
    for model in models:
        every_route(model)
    return built


def test_full_verdict_builds_the_tree_once(monkeypatch):
    models = seed0_markets(30)
    built = count_builds(monkeypatch, "_build_nodes", models)
    assert len(built) == len(models)
    assert all(a is b for a, b in zip(built, models))


def test_every_route_reads_one_build_of_the_steps(monkeypatch):
    """The nodes, the gains, ``terminal_gain`` and ``martingale_residuals``
    read each model's increments from one build."""
    model, _ = crr_tree(4)
    assert count_builds(monkeypatch, "_build_steps", [model]) == [model]
    models = seed0_markets(30)
    built = count_builds(monkeypatch, "_build_steps", models)
    assert len(built) == len(models)
    assert all(a is b for a, b in zip(built, models))


def test_build_slot_is_read_once(monkeypatch):
    # the slot holds model A's builds, and reading its model runs a build for
    # model B, as another thread could between two reads of the slot: A must
    # still get its own nodes, not those B left in the slot
    model, (other, _) = additive_tree(3), crr_tree(2)

    class Racing(tuple):
        raced = False

        def __getitem__(self, i):
            if i == 0 and not self.raced:
                self.raced = True
                market._built(other, market._build_nodes)
            return tuple.__getitem__(self, i)

    monkeypatch.setattr(market, "_last_model", Racing((model, {})))
    assert market._built(model, market._build_nodes) == market._build_nodes(model)


def test_full_verdict_builds_the_gains_once(monkeypatch):
    """The separator route (``payoff_cone``) and NUPBR (the budget LP) share
    one build of the elementary gains per market."""
    models = seed0_markets(30)
    built = count_builds(monkeypatch, "_gains", models)
    assert len(built) == len(models)
    assert all(a is b for a, b in zip(built, models))


def _replaced(part, corrupt):
    return lambda out: dataclasses.replace(out, **{part: corrupt(getattr(out, part))})


# every one-step price, NA₁'s indicator prices included, is certified by
# its duals in one place, ``market._one_step``
PRICE_DUAL = "one-step superhedging price failed re-verification"
NA1_HOLDINGS = "arbitrage witness failed re-verification"


@pytest.mark.parametrize("terminal, holds, corrupt, message", [
    # binomial's node LP is optimal and its dual is the EMM (1/3, 2/3); one
    # entry raised by 1 weighs 2 and is no longer a martingale measure
    ([2, F(1, 2)], True, _replaced("dual", lambda y: (y[0] + 1, *y[1:])), PRICE_DUAL),
    # S = 1 -> (2, 1) prices the up child's indicator at 0: the shifted LP's
    # optimum is -1, and its primal holds one unit; negated, it loses on the up move
    ([2, 1], False, _replaced("primal", lambda x: (x[0], -x[1])), NA1_HOLDINGS),
    # dominance's node LP is unbounded; its ray's holding negated loses on both children
    ([2, F(3, 2)], False, _replaced("ray", lambda r: (r[0], -r[1])), NA1_HOLDINGS),
    # each of these fails one condition on a node LP's duals: (1/3, 0, 2/3)
    # is a martingale measure and certifies the up child's price 1/3, but
    # prices the middle child's shifted indicator at -1, not its optimum 0;
    # twice the EMM is a martingale vector but weighs 2; the EMM reversed
    # weighs 1 and is positive but no martingale
    ([2, 1, F(1, 2)], True, _replaced("dual", lambda y: (F(1, 3), F(0), F(2, 3))), PRICE_DUAL),
    ([2, F(1, 2)], True, _replaced("dual", lambda y: tuple([2 * v for v in y])), PRICE_DUAL),
    ([2, F(1, 2)], True, _replaced("dual", lambda y: y[::-1]), PRICE_DUAL),
    # the up child's shifted indicator is priced -2/3; raised to -1/6 it still
    # passes above -1 with the true EMM as its duals, so only y·b = the
    # optimum tells it is not the least price
    ([2, F(1, 2)], True, _replaced("objective_value", lambda v: v + F(1, 2)), PRICE_DUAL),
], ids=["dual", "primal", "ray", "dual-not-positive", "dual-doubled", "dual-reversed",
        "objective-raised"])
def test_na1_rejects_a_corrupted_certificate(terminal, holds, corrupt, message, monkeypatch):
    """``check_na1`` reads the holdings of a failing node LP and certifies
    each passing LP by its duals; a corrupted one raises, carrying the
    market."""
    model = one_period_model(terminal)
    assert check_na1(model) == holds
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: corrupt(solve(problem)))
    with pytest.raises(InternalInconsistency, match=message) as caught:
        check_na1(model)
    assert caught.value.data["model"] == model


# the budget ceiling, ``market._budget_ceiling``, is certified in one place
# for NUPBR and ``emm_budget``: its duals y give the EMM w − y, then y ≤ 0
# and −Σy = the optimum bound it
BUDGET_BOUND = "budget ceiling failed re-verification"


def _emm_measure(model):
    return find_emm(model).measure


def _seeded_non_emm(model):
    """A strictly positive measure with seeded integer weights, (4/13, 9/13)
    on two outcomes, checked not to be an EMM: binomial's is (1/3, 2/3)."""
    rng = random.Random(3)
    weights = [rng.randint(1, 9) for _ in model.space.outcomes]
    q = Measure(model.space, [F(w, sum(weights)) for w in weights])
    assert not is_martingale_measure(model, q)
    return q


def _raised_objective(out):
    return dataclasses.replace(out, objective_value=out.objective_value + F(1, 10**40))


def _shifted_dual(out, weights):
    """y + (w − y)/2: w − y halved, still a martingale direction."""
    return dataclasses.replace(out, dual=tuple([v + (w - v) / 2
                                                for v, w in zip(out.dual, weights)]))


@pytest.mark.parametrize("terminal, measure, value, corrupt, message", [
    # dominance's ceiling LP is unbounded; its ray negated loses on both children
    ([2, F(3, 2)], _seeded_non_emm, math.inf, lambda out, w: _negated_ray_entry(out),
     "arbitrage witness failed re-verification"),
    # binomial's ceiling is optimal; a lowered dual makes w − y weigh the up
    # child more, no longer a martingale measure
    ([2, F(1, 2)], _emm_measure, 1, lambda out, w: _lowered_dual(out),
     "martingale measure failed re-verification"),
    ([2, F(1, 2)], _seeded_non_emm, F(27, 26), lambda out, w: _lowered_dual(out),
     "martingale measure failed re-verification"),
    # an optimum raised by 1/10^40 keeps the duals, and so the EMM, intact:
    # only −Σy = the optimum tells it is not the ceiling
    ([2, F(1, 2)], _emm_measure, 1, lambda out, w: _raised_objective(out), BUDGET_BOUND),
    ([2, F(1, 2)], _seeded_non_emm, F(27, 26), lambda out, w: _raised_objective(out),
     BUDGET_BOUND),
    # duals moved halfway to w still give the same EMM; only the bound catches them
    ([2, F(1, 2)], _emm_measure, 1, _shifted_dual, BUDGET_BOUND),
    ([2, F(1, 2)], _seeded_non_emm, F(27, 26), _shifted_dual, BUDGET_BOUND),
    # the ceiling 1/26 lowered to 0, with duals w − (1/3, 2/3) = (−1/39, 1/39):
    # they give the EMM and −Σy = 0, so only their sign tells
    ([2, F(1, 2)], _seeded_non_emm, F(27, 26),
     lambda out, w: dataclasses.replace(out, objective_value=F(0), dual=(F(-1, 39), F(1, 39))),
     BUDGET_BOUND),
], ids=["ray", "dual-emm", "dual-seeded", "objective-raised-emm", "objective-raised-seeded",
        "dual-shifted-emm", "dual-shifted-seeded", "objective-lowered-seeded"])
def test_emm_budget_rejects_a_corrupted_certificate(terminal, measure, value, corrupt, message,
                                                    monkeypatch):
    """``emm_budget`` returns a value only when its ceiling LP's ray is an
    arbitrage or its duals give an EMM and bound the optimum; a corrupted
    outcome raises, carrying the market."""
    model = one_period_model(terminal)
    q = measure(model)
    assert emm_budget(model, q) == value
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: corrupt(solve(problem), q.weights))
    with pytest.raises(InternalInconsistency, match=message) as caught:
        emm_budget(model, q)
    assert caught.value.data["model"] == model


def _unbounded_below_a_finite_root():
    """S stays at 1 until t = 1, then moves to 2 or 3 on {a1, a2}, an
    arbitrage, and to 2 or 1/2 on {b1, b2}: the node {a1, a2} is unbounded,
    and its hedge follows its LP's ray from the wealth the root leaves it."""
    space = SampleSpace(["a1", "a2", "b1", "b2"], [F(1, 4)] * 4)
    filtration = Filtration(space, [
        [["a1", "a2", "b1", "b2"]], [["a1", "a2"], ["b1", "b2"]],
        [["a1"], ["a2"], ["b1"], ["b2"]]])
    path = (space.constant(1), space.constant(1), space.variable([2, 3, 2, F(1, 2)]))
    return MarketModel(filtration, [Asset("S", path)])


def test_na1_fails_at_a_node_priced_minus_inf():
    # node {a1, a2} has a strong arbitrage (S moves 1 -> 2 or 3), so it prices
    # its child indicators at -inf, although the root alone is arbitrage-free
    model = _unbounded_below_a_finite_root()
    assert not check_na1(model)
    assert not global_routes.check_na1(model)


def test_budget_set_scaling(binomial):
    # membership in B_alpha matches membership of x/alpha in B_1
    rng = random.Random(13)
    for _ in range(20):
        x = binomial.space.variable(
            [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in binomial.space.outcomes])
        alpha = F(rng.randint(1, 8), rng.randint(1, 4))
        lhs = in_budget_set(binomial, x, alpha)
        rhs = in_budget_set(binomial, x.scale(1 / alpha), 1)
        assert lhs == rhs
    # B_alpha lies in V+, so a point with a negative entry is in none of them
    assert not in_budget_set(binomial, binomial.space.variable([1, -1]), 100)


def test_budget_zero_subset_of_all_levels(dominance, binomial):
    # every zero-wealth dominated payoff stays dominated at any positive level
    arb = check_na(dominance).arbitrage
    payoff = terminal_gain(dominance, arb)
    assert in_budget_set(dominance, payoff, 0)
    for alpha in (F(1, 7), F(1, 2), F(3)):
        assert in_budget_set(dominance, payoff, alpha)
    assert in_budget_set(binomial, binomial.space.zero(), 0)


def test_dominance_indicators_price_to_zero_or_less(dominance):
    # scaling the arbitrage superreplicates indicators at vanishing cost
    for e in dominance.space.indicators():
        assert superreplication_price(dominance, e).price <= 0


def test_strong_arbitrage_prices_minus_inf():
    model = one_period_model([2, F(3, 2)])
    assert superreplication_price(model, model.space.zero()).price == -math.inf \
        or superreplication_price(model, model.space.zero()).price <= 0


@pytest.mark.parametrize("terminal, payoff, price, corrupt", [
    # binomial's call LP is optimal at 1/3 with duals (1/3, 2/3); an optimum
    # raised by 1 still has a hedge that superreplicates, so only the dual
    # bound y·b = 1/3 tells it is not the least price
    ([2, F(1, 2)], [1, 0], F(1, 3), _replaced("objective_value", lambda v: v + 1)),
    ([2, F(1, 2)], [1, 0], F(1, 3), _replaced("objective_value", lambda v: v + TINY)),
    # each of these fails one condition on the duals alone.  The zero payoff
    # is priced 0, so y·b = 0 whatever y is: twice binomial's duals are a
    # martingale vector that weighs 2; (1/2, -1/2, 1) weighs 1 and solves
    # the trinomial node's martingale row but is negative at the middle
    # child; and (1/3, 1/3, 1/3) weighs 1, is positive and prices the
    # trinomial up child's indicator at its price 1/3 but is no martingale
    ([2, F(1, 2)], [0, 0], F(0), _replaced("dual", lambda y: tuple([2 * v for v in y]))),
    ([2, 1, F(1, 2)], [0, 0, 0], F(0),
     _replaced("dual", lambda y: (F(1, 2), F(-1, 2), F(1)))),
    ([2, 1, F(1, 2)], [1, 0, 0], F(1, 3), _replaced("dual", lambda y: (F(1, 3),) * 3)),
    # binomial's call duals with a dual 0 for a row the LP does not have: the
    # first two still pass every sum, so only their count tells
    ([2, F(1, 2)], [1, 0], F(1, 3), _replaced("dual", lambda y: (*y, F(0)))),
], ids=["objective-raised", "objective-raised-tiny", "dual-doubled", "dual-negative",
        "dual-no-martingale", "dual-extra-row"])
def test_price_rejects_a_corrupted_certificate(terminal, payoff, price, corrupt, monkeypatch):
    """``superreplication_price`` certifies each optimal node LP by its
    duals; a corrupted one raises, carrying the market."""
    model = one_period_model(terminal)
    payoff = model.space.variable(payoff)
    assert superreplication_price(model, payoff).price == price
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: corrupt(solve(problem)))
    with pytest.raises(InternalInconsistency, match=PRICE_DUAL) as caught:
        superreplication_price(model, payoff)
    assert caught.value.data["model"] == model


def test_one_step_problem_drops_minus_inf_children(lp_calls):
    node = market._built(one_period_model([2, 1, F(1, 2)]), market._build_nodes)[0]
    market._one_step(node, [0, -math.inf, 1], 1)
    # values over a 300-digit denominator: the LP the rational constructor
    # poses on the same rows, each row in lowest terms
    market._one_step(node, [HUGE + 1, -math.inf, 3], 7 * HUGE)
    problem, fine = lp_calls
    assert problem.rows == ((1, 1), (1, F(-1, 2)))
    assert problem.rhs == (0, 1)
    assert fine == lp.LpProblem([1, 0], [[1, 1], [1, F(-1, 2)]], [">="] * 2,
                                [F(HUGE + 1, 7 * HUGE), F(3, 7 * HUGE)],
                                free={0, 1}, sense="min")


def test_price_is_cash_additive_and_positively_homogeneous():
    """π(c·X + a) = c·π(X) + a for c > 0 and cash a ≥ 0, −inf kept, and
    every hedge superreplicates: what lets nodes whose child prices differ
    by cash and a positive factor share one solve.  On the first 300 seed-0
    markets, CRR trees with T = 2..5 and a finite price above an unbounded
    node, X the call on asset 0 and the first outcome's indicator."""
    models = (seed0_markets(300) + [crr_tree(T)[0] for T in range(2, 6)]
              + [_unbounded_below_a_finite_root()])
    finite = 0
    for model in models:
        first = [1] + [0] * (len(model.space) - 1)
        for x in (call_on(model), model.space.variable(first)):
            price = superreplication_price(model, x).price
            for c in (F(1, 3), F(2), F(7, 2)):
                for a in (F(0), F(1), F(5, 2)):
                    payoff = model.space.variable([c * v + a for v in x.values])
                    res = superreplication_price(model, payoff)
                    assert res.price == (c * price + a if price != -math.inf else price)
                    if res.hedge is None:
                        assert price == -math.inf
                        continue
                    gain = terminal_gain(model, res.hedge)
                    assert all(res.price + g >= v for g, v in zip(gain.values, payoff.values))
                    finite += 1
    assert finite == 9 * 112


# --- node route edge cases ---------------------------------------------------

def test_finite_price_through_an_unbounded_subtree():
    # node {a1, a2} has an arbitrage (S moves 1 -> 2 or 3), so its price is
    # -inf and the root drops its row; the root still prices {b1, b2} at 1/3
    space = SampleSpace(["a1", "a2", "b1", "b2"], [F(1, 4)] * 4)
    filtration = Filtration(space, [
        [["a1", "a2", "b1", "b2"]], [["a1", "a2"], ["b1", "b2"]],
        [["a1"], ["a2"], ["b1"], ["b2"]]])
    path = (space.constant(1), space.constant(1), space.variable([2, 3, 2, F(1, 2)]))
    model = MarketModel(filtration, [Asset("S", path)])
    payoff = space.variable([5, 7, 1, 0])
    res = superreplication_price(model, payoff)
    assert res.price == F(1, 3)
    assert dict(res.hedge.holdings)[2, 0, 0] == 5  # the hedge at node {a1, a2}
    gain = terminal_gain(model, res.hedge)
    assert all(res.price + g >= x for g, x in zip(gain.values, payoff.values))
    assert global_routes.superreplication_price(model, payoff).price == F(1, 3)


def _ray_below_a_finite_root():
    """S moves from 1 to 1/4, 2 or 1/2 at t = 1, then from 1/4 to 1/2 or 1
    on {a1, a2}, an arbitrage: ``tests/data/ray_hedge.json``."""
    space = SampleSpace(["a1", "a2", "b", "c"], [F(1, 4)] * 4)
    filtration = Filtration(space, [
        [["a1", "a2", "b", "c"]], [["a1", "a2"], ["b"], ["c"]],
        [["a1"], ["a2"], ["b"], ["c"]]])
    path = (space.constant(1), space.variable([F(1, 4), F(1, 4), 2, F(1, 2)]),
            space.variable([F(1, 2), 1, 2, F(1, 2)]))
    return MarketModel(filtration, [Asset("S", path)])


def test_hedge_follows_the_ray_below_an_unbounded_node():
    # the root hedge (price 2, 4 units) leaves node {a1, a2} with wealth
    # 2 − 4·3/4 = −1, below its LP's primal α, so the hedge there moves along
    # the node LP's ray until its α is at most −1
    model = _ray_below_a_finite_root()
    assert load_market((DATA / "ray_hedge.json").read_text()) == model
    space = model.space
    payoff = space.variable([1, 1, 6, 0])
    res = superreplication_price(model, payoff)
    assert res.price == 2
    assert dict(res.hedge.holdings)[1, 0, 0] == 4
    gain = terminal_gain(model, res.hedge)
    assert all(res.price + g >= x for g, x in zip(gain.values, payoff.values))
    assert global_routes.superreplication_price(model, payoff).price == 2


def _rays_at_two_levels():
    """S moves from 1 to 3, 4, 2 or 1/2 at t = 1.  Then {a1, a2} moves up to
    4 or 5, {b1, b2} up to 5 or 6, and {c1, c2, c3, c4} to 1/2, 1 or 4; at
    t = 3 only {c1, c2} moves, up to 1 or 2.  So the nodes {a1, a2} and
    {b1, b2} at t = 1 and {c1, c2} at t = 2 are unbounded."""
    names = ["a1", "a2", "b1", "b2", "c1", "c2", "c3", "c4", "d"]
    space = SampleSpace(names, [F(1, 9)] * 9)
    filtration = Filtration(space, [
        [names], [["a1", "a2"], ["b1", "b2"], ["c1", "c2", "c3", "c4"], ["d"]],
        [["a1"], ["a2"], ["b1"], ["b2"], ["c1", "c2"], ["c3"], ["c4"], ["d"]],
        [[name] for name in names]])
    path = (space.constant(1), space.variable([3, 3, 4, 4, 2, 2, 2, 2, F(1, 2)]),
            space.variable([4, 5, 5, 6, F(1, 2), F(1, 2), 1, 4, F(1, 2)]),
            space.variable([4, 5, 5, 6, 1, 2, 1, 4, F(1, 2)]))
    return MarketModel(filtration, [Asset("S", path)])


def test_hedge_follows_rays_at_two_levels():
    # the root hedge (price 3, −2 units) leaves {a1, a2} with 3 − 2·2 = −1 and
    # {b1, b2} with 3 − 2·3 = −3; {c1, c2, c3, c4} holds 1 unit and leaves
    # {c1, c2} with 3 − 2·1 + 1·(1/2 − 2) = −1/2, so its wealth needs the
    # holdings placed at t = 1 and t = 2.  Each wealth is below its node LP's
    # α, 0, so each hedge moves along its LP's ray
    model = _rays_at_two_levels()
    payoff = model.space.variable([1, 2, 2, 1, 1, 2, 0, 3, 4])
    res = superreplication_price(model, payoff)
    assert res.price == 3
    assert res.hedge.holdings == (((1, 0, 0), -2), ((2, 0, 0), 2), ((2, 0, 1), 5),
                                  ((2, 0, 2), 1), ((3, 0, 4), 3))
    gain = terminal_gain(model, res.hedge)
    assert all(res.price + g >= x for g, x in zip(gain.values, payoff.values))
    assert global_routes.superreplication_price(model, payoff).price == 3


def test_price_digest():
    """The price and hedge holdings ``superreplication_price`` returns, pinned
    byte for byte: for a call on asset 0 and the first outcome's indicator,
    on the first 1000 seed-0 markets, CRR trees with T = 1..6 and the two
    markets whose hedge passes an unbounded node."""
    models = seed0_markets(1000) + [crr_tree(T)[0] for T in range(1, 7)]
    models += [_unbounded_below_a_finite_root(), _ray_below_a_finite_root()]
    answers = []
    for model in models:
        first = [1] + [0] * (len(model.space) - 1)
        for payoff in (call_on(model), model.space.variable(first)):
            res = superreplication_price(model, payoff)
            answers.append((res.price, None if res.hedge is None else res.hedge.holdings or None))
    text = "\n".join(repr(answer) for answer in answers)
    assert sum(price != -math.inf for price, _ in answers) == PRICE_FINITE
    assert hashlib.sha256(text.encode()).hexdigest() == PRICE_DIGEST


PRICE_FINITE = 312
PRICE_DIGEST = "b47b332b838fe8487b5dd21fba5e8a6d5364024c9bfc48a58469ee89af9fa0c5"


#: a payoff on binomial over a 300-digit denominator, priced α = 1/7: α's
#: one-digit denominator, the 300-digit ones of the payoff and of its hedge's
#: gain differ, so a mix-up between them cannot cancel out
HUGE = 7 ** 355
TINY = F(1, 10 ** 40)


def _fine_payoff(binomial):
    return binomial.space.variable([F(1, 7 * HUGE), F(3 * HUGE - 1, 14 * HUGE)])


def test_hedge_check_is_exact_at_equality(binomial):
    # binomial replicates every payoff: α + hedge gain equals it on both
    # outcomes, so the check passes with no room to spare
    payoff = _fine_payoff(binomial)
    res = superreplication_price(binomial, payoff)
    assert res.price == F(1, 7)
    gain = terminal_gain(binomial, res.hedge)
    assert [res.price + g for g in gain.values] == list(payoff.values)


def test_hedge_short_by_a_tiny_amount_on_one_outcome_raises(binomial, monkeypatch):
    # 2·TINY more of S gains 2·TINY on the up move and loses TINY on the down
    # move, so the hedge falls short of a replicated payoff there alone
    payoff = _fine_payoff(binomial)
    placed = market._strategy_from_coefficients
    monkeypatch.setattr(market, "_strategy_from_coefficients",
                        lambda held: placed(held) + Strategy({(1, 0, 0): 2 * TINY}))
    with pytest.raises(InternalInconsistency,
                       match="superreplication hedge failed re-verification") as caught:
        superreplication_price(binomial, payoff)
    hedge = caught.value.data["hedge"]
    gain = terminal_gain(binomial, hedge)
    assert [F(1, 7) + g - x for g, x in zip(gain.values, payoff.values)] == [2 * TINY, -TINY]


@pytest.mark.parametrize("model, strategy", [
    # S stays at 1 over (0, 1], so a holding then gains 0 everywhere
    (_unbounded_below_a_finite_root(), Strategy({(1, 0, 0): 1})),
    # S moves 1 -> 2, 1 or 1/2: -TINY of it gains (-TINY, 0, TINY/2)
    (one_period_model([2, 1, F(1, 2)]), Strategy({(1, 0, 0): -TINY})),
], ids=["zero-gain", "tiny-loss"])
def test_arbitrage_check_rejects_a_gain_that_is_zero_or_dips_below(model, strategy):
    with pytest.raises(InternalInconsistency,
                       match="arbitrage witness failed re-verification") as caught:
        market._verified_arbitrage(model, strategy.holdings)
    assert caught.value.data["payoff"] == terminal_gain(model, strategy)
    assert caught.value.data["strategy"] == strategy


def test_arbitrage_check_accepts_a_tiny_gain_that_is_zero_elsewhere():
    # S moves 1 -> 2, 1 or 1: TINY of it gains (TINY, 0, 0), ≥ 0 and ≠ 0
    model = one_period_model([2, 1, 1])
    market._verified_arbitrage(model, Strategy({(1, 0, 0): TINY}).holdings)


def test_arbitrage_check_reads_integer_holdings_over_one_denominator():
    """An LP's holdings reach the check as integers over its denominator,
    with no ``Strategy``; one is built only for the raise, equal to the
    same holdings as ``Fraction``s."""
    key = (1, 0, 0)
    # S moves 1 -> 2, 1 or 1: 3/7 of it gains (3/7, 0, 0)
    market._verified_arbitrage(one_period_model([2, 1, 1]), [(key, 3)], 7)
    model = one_period_model([2, 1, F(1, 2)])  # S moves 1 -> 2, 1 or 1/2
    with pytest.raises(InternalInconsistency,
                       match="arbitrage witness failed re-verification") as caught:
        market._verified_arbitrage(model, [(key, -3)], 7)
    assert caught.value.data["strategy"] == Strategy({key: F(-3, 7)})
    assert caught.value.data["payoff"] == model.space.variable([F(-3, 7), 0, F(3, 14)])
    assert market._gain_ints(model, [(key, -3)], 7) == market._gain_ints(
        model, Strategy({key: F(-3, 7)}).holdings)


def test_one_outcome_zero_horizon():
    space = SampleSpace(["w"], [1])
    model = MarketModel(Filtration(space, [[["w"]]]), [Asset("S", (space.constant(3),))])
    payoff = space.constant(F(5, 2))
    for route in (market, global_routes):
        assert route.check_na(model).holds
        assert route.find_emm(model).measure.weights == (F(1),)
        assert route.superreplication_price(model, payoff).price == F(5, 2)


def test_crr_ten_periods_exact_and_fast():
    T, q, strike = 10, F(1, 3), F(1)
    model, ups = crr_tree(T)
    call = model.space.variable([max(v - strike, 0) for v in model.assets[0].path[-1].values])
    started = time.perf_counter()
    na = check_na(model)
    emm = find_emm(model)
    price = superreplication_price(model, call)
    elapsed = time.perf_counter() - started
    assert na.holds
    assert emm.measure.weights == tuple(q ** u * (1 - q) ** (T - u) for u in ups)
    assert price.price == sum(math.comb(T, j) * q ** j * (1 - q) ** (T - j)
                              * max(F(2) ** (2 * j - T) - strike, 0) for j in range(T + 1))
    assert elapsed < 10  # the whole-market LPs grow about 6x per period


def scattered(model, rng):
    """``model`` with its outcomes renumbered by a seeded permutation: its
    cells are then scattered sets of indices, not intervals."""
    space = model.space
    order = list(range(len(space)))
    rng.shuffle(order)  # new index j holds outcome order[j]
    shuffled = SampleSpace([space.outcomes[i] for i in order],
                           [space.probabilities[i] for i in order])
    filtration = Filtration(shuffled, [[[space.outcomes[i] for i in cell] for cell in cells]
                                       for cells in model.filtration.partitions])
    return MarketModel(filtration, [
        Asset(asset.name, tuple(shuffled.variable([x.values[i] for i in order])
                                for x in asset.path))
        for asset in model.assets])


def as_is(model, rng):
    return model


def is_scattered(model):
    return any(cell != tuple(range(cell[0], cell[-1] + 1))
               for cells in model.filtration.partitions for cell in cells)


def same_residuals(model, measure):
    residuals = market.martingale_residuals(model, measure)
    expected = {(g.t, g.asset, g.cell): measure.expectation(g.vector)
                for g in global_routes.elementary_gains(model)}
    assert residuals == expected
    assert list(residuals) == list(expected)


def same_verdicts_and_residuals(model, q, rng):
    """Residuals and verdicts against the per-gain reference under the EMM
    q, a perturbed one and the uniform measure; the verdicts, in order."""
    n = len(model.space)
    i, j = rng.sample(range(n), 2)
    moved = list(q.weights)
    moved[i] += moved[j] / 2
    moved[j] /= 2
    verdicts = []
    for weights in (q.weights, moved, [F(1, n)] * n):
        measure = Measure(model.space, weights)
        verdict = market.is_martingale_measure(model, measure)
        assert verdict == global_routes.is_martingale_measure(model, measure)
        same_residuals(model, measure)
        verdicts.append(verdict)
    return verdicts


def same_terminal_gain(model, rng):
    """``terminal_gain`` of a seeded strategy on every elementary gain
    against the sum of coefficient times gain, outcome by outcome."""
    gains = global_routes.elementary_gains(model)
    coefficients = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in gains]
    strategy = global_routes._strategy_from_coefficients(gains, coefficients)
    expected = [sum([c * g.vector.values[i] for c, g in zip(coefficients, gains)], F(0))
                for i in range(len(model.space))]
    assert terminal_gain(model, strategy).values == tuple(expected)


def check_martingale_residuals(rng, change):
    """Residuals and verdicts against the per-gain reference: under an EMM,
    a perturbed one and the uniform measure where the market has an EMM,
    and under the uniform measure where it has none (among them the only
    markets with two assets and several cells before T)."""
    verdicts = []
    while len(verdicts) < 135:
        model = change(lab.random_market(rng), rng)
        n = len(model.space)
        q = find_emm(model).measure
        if q is None:
            same_residuals(model, Measure(model.space, [F(1, n)] * n))
            continue
        verdicts += same_verdicts_and_residuals(model, q, rng)
    assert True in verdicts and False in verdicts


def check_terminal_gains(rng, change):
    models = []
    for _ in range(135):
        model = change(lab.random_market(rng), rng)
        same_terminal_gain(model, rng)
        models.append(model)
    return models


def test_martingale_check_matches_per_gain_reference():
    check_martingale_residuals(random.Random(0), as_is)


def test_terminal_gain_matches_per_gain_reference():
    check_terminal_gains(random.Random(0), as_is)


def test_martingale_check_matches_per_gain_reference_on_scattered_cells():
    check_martingale_residuals(random.Random("scattered"), scattered)


def test_terminal_gain_matches_per_gain_reference_on_scattered_cells():
    models = check_terminal_gains(random.Random("scattered"), scattered)
    assert sum(map(is_scattered, models)) >= len(models) // 3  # one-period cells never are


@pytest.mark.parametrize("T", range(2, 9))
def test_tree_walks_match_per_gain_references_on_trees(T):
    """The residuals and the terminal gain, summed on the steps' integer
    increments, against the per-gain references on the CRR tree, whose
    nodes share one market, and on the additive tree, where none do."""
    rng = random.Random(f"trees-{T}")
    for model in (crr_tree(T)[0], additive_tree(T)):
        assert same_verdicts_and_residuals(model, find_emm(model).measure, rng) == [
            True, False, False]
        same_terminal_gain(model, rng)


def step_models(source):
    """The first 135 seed-0 markets, 135 with scattered cells, or CRR T = 2..8."""
    if source == "crr":
        return [crr_tree(T)[0] for T in range(2, 9)]
    rng = random.Random("scattered" if source == "scattered" else 0)
    change = scattered if source == "scattered" else as_is
    return [change(lab.random_market(rng), rng) for _ in range(135)]


@pytest.mark.parametrize("source", ["seed0", "scattered", "crr"])
def test_steps_hold_each_increment_as_integers_in_lowest_terms(source):
    """Each (t, asset)'s increments over their one denominator are
    S_t − S_{t−1} on every outcome of every cell at t, in lowest terms."""
    for model in step_models(source):
        parts = model.filtration.partitions
        steps = market._build_steps(model)
        assert len(steps) == model.horizon
        for t, (_, moves) in enumerate(steps, start=1):
            assert len(moves) == len(model.assets)
            for asset, (ints, den) in zip(model.assets, moves):
                assert den > 0 and math.gcd(den, *ints) == 1
                assert len(ints) == len(parts[t])
                now, before = asset.path[t].values, asset.path[t - 1].values
                for v, cell in zip(ints, parts[t]):
                    assert all(F(v, den) == now[i] - before[i] for i in cell)


def fraction_columns(node):
    """A node's columns as ``Fraction``s, from its (integers, denominator)
    pairs."""
    return [tuple(F(v, den) for v in ints) for ints, den in node.columns]


def fraction_key(node):
    """A node's key from its ``Fraction`` columns: the child count and, per
    column, ``to_integers`` of it divided by the gcd of its entries."""
    key = [len(node.children)]
    for column in fraction_columns(node):
        ints, _ = to_integers(column)
        g = math.gcd(*ints)
        key.append(tuple(v // g for v in ints))
    return tuple(key)


@pytest.mark.parametrize("source", ["seed0", "scattered", "crr"])
def test_node_keys_match_the_keys_of_their_fraction_columns(source):
    """Keyed on the steps' integers, each node shares a solve with exactly
    the first node whose ``Fraction`` columns give its key, and its ratios,
    integer pairs in lowest terms, are its columns over that node's."""
    for model in step_models(source):
        parts = model.filtration.partitions
        nodes = market._build_nodes(model)
        first = {}
        for i, node in enumerate(nodes):
            for a, column in zip(node.assets, fraction_columns(node)):
                now, before = model.assets[a].path[node.t], model.assets[a].path[node.t - 1]
                assert column == tuple(now.values[parts[node.t][c][0]]
                                       - before.values[parts[node.t][c][0]]
                                       for c in node.children)
            rep = first.setdefault(fraction_key(node), i)
            assert node.market == rep
            assert all(d > 0 and math.gcd(n, d) == 1 for n, d in node.ratio)
            assert tuple(F(n, d) for n, d in node.ratio) == tuple(
                next(v / r for v, r in zip(column, base) if v)
                for column, base in zip(fraction_columns(node), fraction_columns(nodes[rep])))


@pytest.mark.parametrize("change", [as_is, scattered])
def test_gains_match_the_reference_layout(change):
    """``_gains`` has the reference's keys, in its order, and its n-tuples,
    integers over the step's denominator, zero gains included, on interval
    and on scattered cells."""
    rng = random.Random(f"gains-{change.__name__}")
    for _ in range(135):
        model = change(lab.random_market(rng), rng)
        assert [(key, tuple(F(v, den) for v in ints))
                for key, (ints, den) in market._gains(model).items()] == [
            ((g.t, g.asset, g.cell), g.vector.values)
            for g in global_routes.elementary_gains(model)]


# --- metamorphic properties: each change leaves the gain cone unchanged -------

def _cone_answers(model):
    return (check_na(model).holds,
            [superreplication_price(model, e).price for e in model.space.indicators()])


@pytest.mark.parametrize("change", ["permute_rename", "scale", "add_combination"])
def test_metamorphic_asset_changes(change):
    rng = random.Random(f"metamorphic-{change}")
    for _ in range(100):
        model = lab.random_market(rng)
        assets = list(model.assets)
        if change == "permute_rename":
            rng.shuffle(assets)
            changed = [Asset(f"renamed{k}", a.path) for k, a in enumerate(assets)]
        elif change == "scale":
            k = rng.randrange(len(assets))
            c = F(rng.randint(1, 9), rng.randint(1, 9))
            changed = assets[:k] + [Asset(assets[k].name, tuple(x.scale(c) for x in
                                                                assets[k].path))] + assets[k + 1:]
        else:
            weights = [F(rng.randint(1, 5), rng.randint(1, 5)) for _ in assets]
            path = []
            for t in range(model.horizon + 1):
                total = model.space.zero()
                for w, a in zip(weights, assets):
                    total = total + a.path[t].scale(w)
                path.append(total)
            changed = assets + [Asset("combination", tuple(path))]
        assert _cone_answers(MarketModel(model.filtration, changed)) == _cone_answers(model)


def _divided(strategy, k, c):
    """``strategy`` with asset k's holdings divided by c."""
    if strategy is None:
        return None
    return Strategy({(t, a, cell): h / c if a == k else h
                     for (t, a, cell), h in strategy.holdings})


def test_scaling_an_asset_divides_its_holdings():
    # multiplying asset k's whole path by c > 0 scales its increment column
    # at every node by c, so every node LP is the same LP with that column
    # scaled: each verdict and price stays, and asset k's holdings in the
    # arbitrage and in every hedge are divided by c exactly
    rng = random.Random("metamorphic-scale-holdings")
    hedges = 0
    for _ in range(100):
        model = lab.random_market(rng)
        k = rng.randrange(len(model.assets))
        c = F(rng.randint(1, 9), rng.randint(1, 9))
        assets = list(model.assets)
        assets[k] = Asset(assets[k].name, tuple(x.scale(c) for x in assets[k].path))
        changed = MarketModel(model.filtration, assets)
        before, after = full_verdict(model), full_verdict(changed)
        assert after.as_dict() == before.as_dict()
        assert check_na1(changed) == check_na1(model)
        assert after.arbitrage == _divided(before.arbitrage, k, c)
        for payoff in (call_on(model), *model.space.indicators()):
            price, scaled = (superreplication_price(m, payoff) for m in (model, changed))
            assert scaled.price == price.price
            assert scaled.hedge == _divided(price.hedge, k, c)
            hedges += price.hedge is not None
        measure = find_emm(changed).measure
        assert (measure is None) == (find_emm(model).measure is None)
        assert measure is None or (measure.is_equivalent
                                   and market.is_martingale_measure(changed, measure))
    assert hedges > 50  # 88 finite prices, each with its hedge


def _permuted(model, order):
    """The model with its outcomes listed in ``order``, a permutation of indices."""
    space = model.space
    changed = SampleSpace([space.outcomes[i] for i in order],
                          [space.probabilities[i] for i in order])
    levels = [[[space.outcomes[i] for i in cell] for cell in level]
              for level in model.filtration.partitions]
    assets = [Asset(a.name, tuple(changed.variable([x.values[i] for i in order])
                                  for x in a.path)) for a in model.assets]
    return MarketModel(Filtration(changed, levels), assets)


def _split(model, s):
    """The model with outcome ``s`` replaced by two copies, which share its
    path, halve its probability and part only at T."""
    space = model.space
    copies = [[o, o + "'"] if i == s else [o] for i, o in enumerate(space.outcomes)]
    source = [i for i, names in enumerate(copies) for _ in names]
    changed = SampleSpace([o for names in copies for o in names],
                          [space.probabilities[i] / len(copies[i]) for i in source])
    levels = [[[o for i in cell for o in copies[i]] for cell in level]
              for level in model.filtration.partitions[:-1]]
    levels.append([[o] for names in copies for o in names])
    assets = [Asset(a.name, tuple(changed.variable([x.values[i] for i in source])
                                  for x in a.path)) for a in model.assets]
    return MarketModel(Filtration(changed, levels), assets)


def _reweighted(model, rng):
    """The model under other strictly positive outcome probabilities, an
    equivalent measure."""
    weights = [F(rng.randint(1, 9)) for _ in model.space.outcomes]
    changed = SampleSpace(model.space.outcomes, [w / sum(weights) for w in weights])
    assets = [Asset(a.name, tuple(changed.variable(x.values) for x in a.path))
              for a in model.assets]
    return MarketModel(Filtration(changed, model.filtration.partitions), assets)


def _indicator_answers(model, copies):
    """NA, NA₁ and, for each original outcome, the price of the indicator of
    its copies in ``model``."""
    space = model.space
    prices = {o: superreplication_price(
        model, space.variable([int(x in names) for x in space.outcomes])).price
        for o, names in copies.items()}
    return check_na(model).holds, check_na1(model), prices


@pytest.mark.parametrize("change", ["permute_outcomes", "split_outcome", "reweight"])
def test_metamorphic_outcome_changes(change):
    rng = random.Random(f"metamorphic-{change}")
    for _ in range(100):
        model = lab.random_market(rng)
        outcomes = model.space.outcomes
        if change == "permute_outcomes":
            order = list(range(len(outcomes)))
            rng.shuffle(order)
            changed, copies = _permuted(model, order), {o: [o] for o in outcomes}
        elif change == "reweight":
            changed, copies = _reweighted(model, rng), {o: [o] for o in outcomes}
        else:
            s = rng.randrange(len(outcomes))
            changed = _split(model, s)
            copies = {o: [o, o + "'"] if i == s else [o] for i, o in enumerate(outcomes)}
        assert (_indicator_answers(changed, copies)
                == _indicator_answers(model, {o: [o] for o in outcomes}))


def _in_numeraire(model, k):
    """The model priced in units of asset k, whose path N is positive: each
    other asset S becomes S/N, and the old cash 1 becomes 1/N."""
    space, numeraire = model.space, model.assets[k].path

    def divided(path):
        return tuple(space.variable([s / n for s, n in zip(x.values, n_t.values)])
                     for x, n_t in zip(path, numeraire))

    assets = [Asset(a.name, divided(a.path)) for i, a in enumerate(model.assets) if i != k]
    cash = tuple(space.constant(1) for _ in numeraire)
    return MarketModel(model.filtration, assets + [Asset("cash", divided(cash))])


def test_a_change_of_numeraire_keeps_every_answer():
    # a strategy's wealth in units of N is its wealth divided by N, so the
    # market in units of a positive asset N has the same verdicts, prices
    # X/N_T at the old price of X over N_0, and maps an EMM Q to Q·N_T/N_0
    # (Delbaen & Schachermayer 1995; Geman, El Karoui & Rochet 1995)
    rng = random.Random(0)
    changed = priced = mapped = 0
    for _ in range(1000):
        model = lab.random_market(rng)
        k = next((i for i, a in enumerate(model.assets)
                  if all(v > 0 for x in a.path for v in x.values)), None)
        if k is None:
            continue
        numeraire = model.assets[k].path
        n_0, n_T = numeraire[0].values[0], numeraire[-1].values
        other = _in_numeraire(model, k)
        changed += 1
        verdicts = full_verdict(model)
        assert full_verdict(other).as_dict() == verdicts.as_dict()
        payoff = call_on(model) + model.space.indicator(model.space.outcomes[0])
        price = superreplication_price(model, payoff).price
        in_units = model.space.variable([x / n for x, n in zip(payoff.values, n_T)])
        assert superreplication_price(other, in_units).price == price / n_0
        priced += math.isfinite(price)
        if verdicts.emm_exists:
            q = find_emm(model).measure
            moved = Measure(model.space, [w * n / n_0 for w, n in zip(q.weights, n_T)])
            assert is_martingale_measure(other, moved)
            mapped += 1
    # markets with a positive asset, finite prices among them, EMMs mapped
    assert (changed, priced, mapped) == (764, 106, 104)


def _with_idle_period(model, s):
    """The model with an idle period after t = s: the partition and every
    price at s repeat at s + 1, so nothing is learned and nothing moves."""
    parts = model.filtration.partitions
    levels = [*parts[:s + 1], *parts[s:]]
    assets = [Asset(a.name, (*a.path[:s + 1], *a.path[s:])) for a in model.assets]
    return MarketModel(Filtration(model.space, levels), assets)


def test_an_idle_period_keeps_every_answer():
    # the idle period's nodes have one child each and no moving asset: they
    # add no gain and no information, so every verdict and price stays, and
    # the two markets have the same martingale measures
    rng = random.Random("idle-period")
    free = finite = 0
    for _ in range(300):
        model = lab.random_market(rng)
        idle = _with_idle_period(model, rng.randint(0, model.horizon))
        verdicts = full_verdict(model)
        assert full_verdict(idle).as_dict() == verdicts.as_dict()
        space = model.space
        payoff = space.variable([rng.randint(0, 9) for _ in space.outcomes])
        for x in [payoff, *space.indicators()]:
            price = superreplication_price(model, x).price
            assert superreplication_price(idle, x).price == price
            finite += math.isfinite(price)
        if verdicts.emm_exists:
            assert is_martingale_measure(model, find_emm(idle).measure)
            assert is_martingale_measure(idle, find_emm(model).measure)
            free += 1
    # arbitrage-free markets, and finite prices among the 300 markets' payoffs
    assert (free, finite) == (39, 294)


# --- every input check and every re-verification raises ----------------------

THREE = SampleSpace(["a", "b", "c"], [F(1, 3)] * 3)
OTHER = SampleSpace(["u", "d"], [F(1, 3), F(2, 3)])


def _single(space, *names):
    return MarketModel(Filtration.single_period(space), [
        Asset(name, (space.constant(1), space.constant(1))) for name in names])


@pytest.mark.parametrize("call, error, message", [
    (lambda b: Filtration(THREE, [[[]]]), StructureError, "empty cell in partition at t=0"),
    (lambda b: Filtration(THREE, [[["a", "b", "c"]], [["a", "b"], ["b", "c"]]]),
     StructureError, "overlapping cells in partition at t=1"),
    (lambda b: Filtration(THREE, [[["a", "b", "c"]], [["a"], ["b"]]]),
     StructureError, "partition at t=1 does not cover all outcomes"),
    (lambda b: Filtration(THREE, []), StructureError, "at least the t=0 partition"),
    (lambda b: Filtration(SampleSpace.uniform(4), [
        [["w1", "w2", "w3", "w4"]], [["w1", "w2"], ["w3", "w4"]], [["w1", "w3"], ["w2", "w4"]],
        [["w1"], ["w2"], ["w3"], ["w4"]]]),
     StructureError, "partition at t=2 does not refine t=1"),
    (lambda b: _single(THREE), StructureError, "a market needs at least one asset"),
    (lambda b: _single(THREE, "S", "S"), StructureError, "asset names must be unique"),
    (lambda b: MarketModel(b.filtration, [Asset("S", (b.space.constant(1),))]),
     StructureError, "'S' has 1 prices, expected 2"),
    (lambda b: MarketModel(b.filtration, [Asset("S", (OTHER.constant(1),) * 2)]),
     StructureError, "'S' priced on a different space"),
    (lambda b: Measure(b.space, [1]), StructureError, "one weight per outcome required"),
    (lambda b: Measure(b.space, [-1, 2]), StructureError, "measure weights must be nonnegative"),
    (lambda b: Measure(b.space, [F(1, 2), F(1, 3)]), StructureError, "weights sum to 5/6, not 1"),
    (lambda b: Measure(b.space, [F(1, 2)] * 2).expectation(OTHER.zero()),
     StructureError, "random variable on a different space"),
    (lambda b: martingale_residuals(b, Measure(OTHER, [F(1, 2)] * 2)),
     StructureError, "measure on a different sample space"),
    (lambda b: superreplication_price(b, OTHER.zero()),
     StructureError, "payoff on a different sample space"),
    (lambda b: in_budget_set(b, OTHER.zero(), 1), StructureError,
     "point on a different sample space"),
    (lambda b: in_budget_set(b, b.space.zero(), -1), StructureError,
     "budget level must be >= 0"),
    (lambda b: emm_budget(b, Measure(OTHER, [F(1, 2)] * 2)),
     StructureError, "measure on a different sample space"),
], ids=["empty-cell", "overlap", "cover", "no-partition", "refine", "no-asset",
        "asset-names", "path-length", "path-space", "weight-count", "weight-sign",
        "weight-sum", "expectation-space", "residual-space", "payoff-space",
        "budget-space", "budget-level", "emm-budget-space"])
def test_input_validation_raises(call, error, message, binomial):
    with pytest.raises(error, match=message):
        call(binomial)


BINOMIAL_FILE, CALL_FILE = DATA / "binomial.json", DATA / "call_payoff.json"


def _with_status(status):
    return lambda out: dataclasses.replace(out, status=status)


def _swapped_weights(out):
    return dataclasses.replace(out, primal=(out.primal[1], out.primal[0], *out.primal[2:]))


def _shifted_holding(out):
    return dataclasses.replace(out, primal=(out.primal[0], out.primal[1] + 1))


def _lowered_dual(out):
    return dataclasses.replace(out, dual=(out.dual[0] - 1, *out.dual[1:]))


def _negated_ray_entry(out):
    return dataclasses.replace(out, ray=(-out.ray[0], *out.ray[1:]))


def _negated_ray_holdings(out):
    if out.ray is None:  # an earlier node's LP is optimal
        return out
    return dataclasses.replace(out, ray=(out.ray[0], *[-r for r in out.ray[1:]]))


def _call_price(model):
    return superreplication_price(model, model.space.variable([1, 0]))


@pytest.mark.parametrize("route, argv, corrupt, message", [
    (check_na, ["check", "na", BINOMIAL_FILE], _with_status(lp.INFEASIBLE),
     "arbitrage LP must be bounded and feasible"),
    # q = (1/3, 2/3) becomes (2/3, 1/3): a measure, but not a martingale one
    (find_emm, ["emm", BINOMIAL_FILE], _swapped_weights,
     "martingale measure failed re-verification"),
    (_call_price, ["price", BINOMIAL_FILE, CALL_FILE], _with_status(lp.INFEASIBLE),
     "superreplication LP cannot be infeasible"),
    # the call's hedge holds 2/3 of S; 5/3 loses on the down move
    (_call_price, ["price", BINOMIAL_FILE, CALL_FILE], _shifted_holding,
     "superreplication hedge failed re-verification"),
    # a node's price is certified by its LP's duals: binomial's, lowered,
    # no longer weigh 1
    (_call_price, ["price", BINOMIAL_FILE, CALL_FILE], _lowered_dual, PRICE_DUAL),
    # NUPBR's verdict is certified from its own solve, either way: the budget
    # LP is optimal on binomial and two_period, where 1 − y is then no
    # longer a martingale measure, and unbounded on the other two, where the
    # ray is then no longer an arbitrage
    (check_nupbr, ["check", "nupbr", BINOMIAL_FILE], _with_status(lp.INFEASIBLE),
     "budget LP cannot be infeasible"),
    (check_nupbr, ["check", "nupbr", BINOMIAL_FILE], _lowered_dual,
     "martingale measure failed re-verification"),
    (check_nupbr, ["check", "nupbr", DATA / "two_period.json"], _lowered_dual,
     "martingale measure failed re-verification"),
    # duals all 1 give weights 1 − y that are all 0: a total of 0, which is
    # not divided by but handed to Measure, which rejects it
    (check_nupbr, ["check", "nupbr", BINOMIAL_FILE],
     lambda out: dataclasses.replace(out, dual=(F(1),) * len(out.dual)),
     "martingale measure failed re-verification: weights sum to 0, not 1"),
    (check_nupbr, ["check", "nupbr", DATA / "dominance.json"], _negated_ray_entry,
     "arbitrage witness failed re-verification"),
    (check_nupbr, ["check", "nupbr", DATA / "two_period_arbitrage.json"], _negated_ray_entry,
     "arbitrage witness failed re-verification"),
    # NA1 prices each indicator with the one-step LP of the price route, so
    # an infeasible or a lowered-dual node LP raises as it does there; a
    # failing node LP's holdings, negated, lose where they gained
    (check_na1, ["check", "na1", BINOMIAL_FILE], _with_status(lp.INFEASIBLE),
     "superreplication LP cannot be infeasible"),
    (check_na1, ["check", "na1", BINOMIAL_FILE], _lowered_dual, PRICE_DUAL),
    (check_na1, ["check", "na1", DATA / "two_period.json"], _lowered_dual, PRICE_DUAL),
    (check_na1, ["check", "na1", DATA / "dominance.json"], _negated_ray_holdings, NA1_HOLDINGS),
    (check_na1, ["check", "na1", DATA / "two_period_arbitrage.json"], _negated_ray_holdings,
     NA1_HOLDINGS),
    # an optimum raised by 1/10^40, or duals moved halfway to 1, keep the
    # EMM 1 − y, normalized: only the dual bound catches them
    (check_nupbr, ["check", "nupbr", BINOMIAL_FILE], _raised_objective, BUDGET_BOUND),
    (check_nupbr, ["check", "nupbr", BINOMIAL_FILE],
     _replaced("dual", lambda y: tuple([v + (1 - v) / 2 for v in y])), BUDGET_BOUND),
], ids=["na-status", "emm-primal", "price-status", "price-hedge", "price-dual", "nupbr-status",
        "nupbr-dual-binomial", "nupbr-dual-two-period", "nupbr-zero-total", "nupbr-ray-dominance",
        "nupbr-ray-two-period", "na1-status", "na1-dual-binomial", "na1-dual-two-period",
        "na1-ray-dominance", "na1-ray-two-period", "nupbr-objective-raised-tiny",
        "nupbr-dual-shifted"])
def test_a_corrupted_node_lp_is_an_inconsistency(route, argv, corrupt, message,
                                                 monkeypatch, capsys):
    """A corrupted solver outcome ends in ``InternalInconsistency`` carrying
    the market, the first file in ``argv``, and the CLI exits 3 with that
    market as a market file."""
    model = load_market(next(a for a in argv if isinstance(a, Path)).read_text())
    solve = lp.solve
    monkeypatch.setattr(lp, "solve", lambda problem: corrupt(solve(problem)))
    with pytest.raises(InternalInconsistency, match=message) as caught:
        route(model)
    assert caught.value.data["model"] == model
    assert main(["--json", *map(str, argv)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    first, header, dumped = captured.err.split("\n", 2)
    assert first == f"noarb: internal inconsistency: {message}"
    assert header == "noarb: the market it arose on, as a market file:"
    assert load_market(dumped) == model
