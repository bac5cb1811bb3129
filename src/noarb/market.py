"""Finite filtered markets: strategies, arbitrage deciders, martingale
measures and superreplication prices.

A market is a finite filtered sample space together with nonnegative,
adapted asset paths.  Trading strategies are predictable (holdings over
(t−1, t] are constant on each information cell at t−1), and the zero-wealth
payoff cone is spanned exactly by the ± elementary one-period, one-cell,
one-asset gains.  Every decider below reduces to exact LPs, and every
witness it returns is re-verified by direct substitution before being
handed back.

NA, NA₁, the EMM and the superreplication price are decided one tree node
at a time.  A node is an information cell at t−1 with its child cells at t:
a one-period market whose outcomes are the children.  On a finite tree NA
holds iff no node has an arbitrage, NA₁ iff every node prices every child's
indicator above 0, an EMM is the product of one-step conditional EMMs, and
the superreplication price is the backward induction of one-step prices
(Dalang–Morton–Willinger 1990; Föllmer & Schied, *Stochastic Finance*,
ch. 5 and 7).  A one-period model is a single node, so its LP is the whole
market's LP, row for row.  NUPBR, budget-set membership and the payoff cone
stay whole-market LPs.  ℬ_α = {x ≥ 0 : x ≤ α + gain(ξ)} has one LP form,
over the strategy coefficients alone (``_budget_problem``), and its ceiling
is solved and certified in one place for NUPBR and ``emm_budget``
(``_budget_ceiling``).

Each model's tree is read once: ``_build_steps`` lists, for each t ≥ 1, each
cell at t−1's child cells at t and each asset's increments S_t − S_{t−1} on
the cells at t, as integers over one lowest-terms denominator per (t,
asset): the one place an increment is computed.  Exactly three tree
walks read those integers.  ``_build_nodes`` keys each node by the
primitive vector of its integer columns.  ``_gain_ints`` walks top-down,
each child's gain its parent's plus one node's holdings·increments, one
integer sum: the gain ``terminal_gain`` returns, the one that the
arbitrage and hedge checks compare on integers, and the one that a hedge
following an LP's ray reads its wealth off.  ``martingale_residuals`` sums
the measure's mass bottom-up as integers and takes each residual as one
integer sum over a node's children, a ``Fraction`` only where it is not 0.
A node's columns and the elementary gains stay the steps' integers, and
every LP row is posed by one builder, ``lp.rows_from_columns``, from
integers over one denominator per column and one for the rhs, as integers
over one scale (``lp.LpProblem.from_integers``): the node LPs from the
columns, the budget LP from the gains.  ``superreplication_price`` carries
each cell's price bottom-up as an integer pair, keys each node by its
children's pairs over their lcm, and poses a class's LP on those integers.
Each LP's objective is handed over as integers too, each route reads its
LP's outcome as integers over one denominator (``lp.LpOutcome.int_primal``,
``int_dual``, ``int_value``, ``int_ray``), the arbitrage check takes an
LP's holdings as those integers (``_verified_arbitrage``), and the payoff
cone holds the gains' integers (``PolyhedralCone.from_integers``).
``Fraction``s are built from the integers only for what a route returns:
gains, residuals, measures, prices and holdings.

A node's answers depend only on its cone of one-step gains, and scaling an
asset's increments by a positive factor leaves that cone unchanged.  So
nodes with the same child count whose increment columns are positive
multiples of each other, asset by asset, share one solve, posed on the
columns of the first of them, their representative: every node of a
Cox–Ross–Rubinstein tree moves its price by (S, −S/2), so all 2^T − 1 of
them share one.  A positive column scaling keeps every sign and ratio that
Bland's rule reads, so a member's own holdings LP would take the
representative's pivots: the same status, objective and duals, with each
asset's holdings divided by the member's ``ratio``.  Every witness is
therefore what solving each node would give.  The member's martingale rows
are the representative's scaled by positive factors, so the
representative's conditional EMM is one of the member's, re-verified with
the whole measure.  The one-step superhedging price is cash-additive and
positively homogeneous, so ``superreplication_price`` goes further: nodes
of one representative whose child prices are lo + s·b for one shape b
share one solve, scaled to each node's lo and s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import lp
from .cones import PolyhedralCone
from .errors import InternalInconsistency, StructureError
from .lattice import Measure, RandomVariable, SampleSpace
from .rationals import as_fraction, to_integers

Price = Union[Fraction, float]  # exact, or ±inf sentinels

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Filtration:
    """Refining partitions of the outcome set, trivial at 0, discrete at T."""

    space: SampleSpace
    partitions: tuple[tuple[tuple[int, ...], ...], ...]

    def __init__(self, space: SampleSpace, partitions) -> None:
        parts = []
        for t, cells in enumerate(partitions):
            level = []
            seen: set[int] = set()
            for cell in cells:
                idx = tuple(sorted(
                    o if isinstance(o, int) else space.index(o) for o in cell))
                if not idx:
                    raise StructureError(f"empty cell in partition at t={t}")
                if len(set(idx)) != len(idx):
                    raise StructureError(f"a cell lists an outcome twice in partition at t={t}")
                if seen.intersection(idx):
                    raise StructureError(f"overlapping cells in partition at t={t}")
                seen.update(idx)
                level.append(idx)
            if seen != set(range(len(space))):
                raise StructureError(f"partition at t={t} does not cover all outcomes")
            parts.append(tuple(sorted(level)))
        if not parts:
            raise StructureError("a filtration needs at least the t=0 partition")
        if len(parts[0]) != 1:
            raise StructureError("partition at t=0 must be trivial")
        if len(parts[-1]) != len(space):
            raise StructureError("partition at T must separate all outcomes")
        for t in range(len(parts) - 1):
            coarse = {o: k for k, cell in enumerate(parts[t]) for o in cell}
            for cell in parts[t + 1]:
                if len({coarse[o] for o in cell}) != 1:
                    raise StructureError(f"partition at t={t + 1} does not refine t={t}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "partitions", tuple(parts))

    @property
    def horizon(self) -> int:
        return len(self.partitions) - 1

    @classmethod
    def single_period(cls, space: SampleSpace) -> "Filtration":
        everything = tuple(range(len(space)))
        return cls(space, [[everything], [(i,) for i in everything]])


@dataclass(frozen=True)
class Asset:
    """A named, adapted, nonnegative price path (one value per outcome per t)."""

    name: str
    path: tuple[RandomVariable, ...]


@dataclass(frozen=True)
class MarketModel:
    filtration: Filtration
    assets: tuple[Asset, ...]

    def __init__(self, filtration: Filtration, assets: Sequence[Asset]) -> None:
        assets = tuple(assets)
        if not assets:
            raise StructureError("a market needs at least one asset")
        space = filtration.space
        T = filtration.horizon
        names = [a.name for a in assets]
        if len(set(names)) != len(names):
            raise StructureError("asset names must be unique")
        for asset in assets:
            if len(asset.path) != T + 1:
                raise StructureError(
                    f"asset {asset.name!r} has {len(asset.path)} prices, expected {T + 1}")
            for t, x in enumerate(asset.path):
                if x.space != space:
                    raise StructureError(f"asset {asset.name!r} priced on a different space")
                if not x.is_nonneg:
                    raise StructureError(f"asset {asset.name!r} has a negative price at t={t}")
                values = x.values
                for cell in filtration.partitions[t]:
                    # compared with the cell's first price: a set would hash
                    # each Fraction, a modular inverse per price
                    first = values[cell[0]]
                    for i in cell:
                        if values[i] != first:
                            raise StructureError(
                                f"asset {asset.name!r} is not adapted at t={t}")
        object.__setattr__(self, "filtration", filtration)
        object.__setattr__(self, "assets", assets)

    @property
    def space(self) -> SampleSpace:
        return self.filtration.space

    @property
    def horizon(self) -> int:
        return self.filtration.horizon


@dataclass(frozen=True)
class Strategy:
    """Predictable holdings: ``((t, asset index, cell index at t−1), units)``
    pairs, keyed like ``martingale_residuals``, in key order, with zero
    holdings left out.  Built from a mapping or from such pairs;
    ``Strategy()`` holds nothing."""

    holdings: tuple[tuple[tuple[int, int, int], Fraction], ...]

    def __init__(self, holdings=()) -> None:
        units = {key: as_fraction(h) for key, h in dict(holdings).items()}
        object.__setattr__(self, "holdings",
                           tuple(sorted([(key, h) for key, h in units.items() if h])))

    def scale(self, factor) -> "Strategy":
        f = as_fraction(factor)
        return Strategy({key: f * h for key, h in self.holdings})

    def __add__(self, other: "Strategy") -> "Strategy":
        total = dict(self.holdings)
        for key, h in other.holdings:
            total[key] = total.get(key, _ZERO) + h
        return Strategy(total)


def terminal_gain(model: MarketModel, strategy: Strategy) -> RandomVariable:
    """Pathwise Σ_t holdings·(X_t − X_{t−1}); linear in the strategy.  The one
    check of a strategy against a model: a key that names no (t, asset, cell
    at t−1) of the model raises ``StructureError``.  Each outcome is one
    ``Fraction`` of ``_gain_ints``' integer pair."""
    gain, scale = _gain_ints(model, strategy.holdings)
    return RandomVariable(model.space, [Fraction(n, d) for n, d in zip(gain, scale)])


def _gain_ints(model: MarketModel, holdings, den: int = 1) -> tuple[list[int], list[int]]:
    """``terminal_gain`` of the holdings ``((t, asset, cell), units)``, each
    units an int or a ``Fraction`` over ``den`` > 0, as integers: each
    outcome's gain is n/d for the lists (n, d), in outcome order, every
    d > 0; the same ``StructureError`` on a bad key.  A ``Strategy``'s
    holdings are ``Fraction``s over 1, an LP's integers over its ``den``.

    Walked top-down through the tree, one node at a time, on the steps'
    integer increments: the children of a node share one denominator, the
    lcm of the node's own and, per held asset, of the holding's denominator
    times the increments', so each child's gain is one integer sum, its
    parent's rescaled plus Σ_a holdings·ΔS.  The cells at T are the
    outcomes, in order."""
    parts, assets = model.filtration.partitions, model.assets
    held: dict[tuple[int, int], list] = {}
    for (t, a, c), h in holdings:
        if not (0 < t < len(parts) and 0 <= a < len(assets) and 0 <= c < len(parts[t - 1])):
            raise StructureError(
                f"strategy key {(t, a, c)} names no (t, asset, cell) of the model")
        held.setdefault((t, c), []).append((a, h))
    gain, scale = [0], [1]  # each cell's gain is gain[c]/scale[c]
    for t, (kids, moves) in enumerate(_built(model, _build_steps), start=1):
        below, under = [0] * len(parts[t]), [1] * len(parts[t])
        for k, children in enumerate(kids):
            n, d, terms = gain[k], scale[k], []
            if (t, k) in held:
                # h·ΔS = h.numerator·ints / (h.denominator·den·step) for each
                # held asset, whose increments are ints over step
                terms = [(moves[a][0], h.numerator, h.denominator * den * moves[a][1])
                         for a, h in held[t, k]]
                lifted = math.lcm(d, *[q for _, _, q in terms])
                n, d = n * (lifted // d), lifted
                terms = [(ints, p * (d // q)) for ints, p, q in terms]
            for c in children:
                below[c], under[c] = n, d
            for ints, f in terms:
                for c in children:
                    below[c] += f * ints[c]
        gain, scale = below, under
    return gain, scale


def _gains(model: MarketModel) -> dict[tuple[int, int, int], tuple[tuple[int, ...], int]]:
    """Every elementary gain, zero ones included: hold one unit of one asset
    over (t−1, t] on one cell at t−1.  Keyed (t, asset index, cell index),
    in that order; each gain is one value per outcome, as the step's
    integers over its denominator: ``(ints, den)``.  They span the payoff
    cone.  Routes read them through ``_built``."""
    n = len(model.space)
    parts = model.filtration.partitions
    gains = {}
    for t, (kids, moves) in enumerate(_built(model, _build_steps), start=1):
        for a, (ints, den) in enumerate(moves):
            for ci, children in enumerate(kids):
                values = [0] * n
                for c in children:
                    for i in parts[t][c]:
                        values[i] = ints[c]
                gains[t, a, ci] = (tuple(values), den)
    return gains


def payoff_cone(model: MarketModel) -> PolyhedralCone:
    """The zero-initial-wealth payoff cone, the span of the elementary gains,
    widened to "payoff or anything below it": the set whose intersection
    with V₊ must be {0} for the market to be arbitrage-free, and the cone
    ``separation`` separates.  Every gain is its ``span`` once, zero gains
    included, in ``_gains``' order, as ``_gains``' integer pair; it has no
    generators.
    """
    return PolyhedralCone.from_integers(model.space, (), _built(model, _gains).values())


@dataclass(frozen=True)
class _Node:
    """The one-period submarket at cell ``cell`` of time t−1."""

    t: int
    cell: int
    children: tuple[int, ...]  # indices of its child cells at t
    assets: tuple[int, ...]  # the assets whose price moves on some child
    # per moving asset, its increment per child as integers over one
    # denominator: (ints, den), the step's, not reduced to the children
    columns: tuple[tuple[tuple[int, ...], int], ...]
    # index of the node's representative: the first node with as many
    # children whose columns are positive multiples of these, column by column
    market: int
    # per moving asset, this column over the representative's, as the
    # integer pair (n, d) in lowest terms
    ratio: tuple[tuple[int, int], ...]


#: The last model a route asked about and its builds (steps, nodes, gains) by builder:
#: one slot, so a model's routes share each build without holding many models.
_last_model: tuple = (None, {})


def _built(model: MarketModel, build):
    global _last_model
    slot = _last_model  # read once: another thread may replace it at any time
    if slot[0] is not model:
        slot = _last_model = (model, {})
    cache = slot[1]
    if build not in cache:
        cache[build] = build(model)
    return cache[build]


def _build_steps(model: MarketModel) -> tuple:
    """The tree's one-period steps: for each t ≥ 1, each cell at t−1's child
    cells at t, and each asset's increments S_t − S_{t−1}, one per cell at t,
    as integers over one denominator, in lowest terms: ``(ints, den)``.
    Prices are adapted, so one outcome of a cell gives the cell's price:
    this is the one place an increment is computed.  Routes read it through
    ``_built``."""
    parts = model.filtration.partitions
    steps = []
    for t in range(1, model.horizon + 1):
        owner = {o: k for k, cell in enumerate(parts[t - 1]) for o in cell}
        kids: list[list[int]] = [[] for _ in parts[t - 1]]
        for c, child in enumerate(parts[t]):
            kids[owner[child[0]]].append(c)
        firsts = [child[0] for child in parts[t]]
        moves = []
        for asset in model.assets:
            now, before = asset.path[t].values, asset.path[t - 1].values
            # each cell's price at t, then at t−1, over their lcm
            ints, den = to_integers([x[i] for x in (now, before) for i in firsts])
            ints = tuple([v - w for v, w in zip(ints, ints[len(firsts):])])
            g = math.gcd(den, *ints)
            moves.append((tuple([v // g for v in ints]) if g > 1 else ints, den // g))
        # from a list: a tuple built from a bare iterator is resized, and it then
        # stays on its size's freelist after it is freed (see ``rationals.as_fractions``)
        steps.append((tuple([tuple(children) for children in kids]), tuple(moves)))
    return tuple(steps)


def _build_nodes(model: MarketModel) -> tuple[_Node, ...]:
    """Every node of the information tree, by t, then by cell.

    Nodes with the same child count and the same primitive integer vector
    for each column (the step's integer increments on the node's children,
    divided by their gcd, sign kept) have positively proportional columns,
    so each points at the first of them through ``market``; the child count
    matters even where no asset moves.  Routes read it through ``_built``.
    """
    nodes: list[_Node] = []
    first: dict = {}
    for t, (kids, moves) in enumerate(_built(model, _build_steps), start=1):
        for k, children in enumerate(kids):
            assets, columns, key, scales = [], [], [len(children)], []
            for a, (ints, den) in enumerate(moves):
                column = tuple([ints[c] for c in children])
                if any(column):
                    g = math.gcd(*column)
                    assets.append(a)
                    columns.append((column, den))
                    key.append(tuple([v // g for v in column]))
                    scales.append((g, den))  # the column is g/den times its key
            market, rep = first.setdefault(tuple(key), (len(nodes), scales))
            ratio = ((1, 1),) * len(scales) if market == len(nodes) else tuple(
                [_lowest(g * rd, den * rg) for (g, den), (rg, rd) in zip(scales, rep)])
            nodes.append(_Node(t, k, children, tuple(assets), tuple(columns),
                               market, ratio))
    return tuple(nodes)


def _lowest(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms, for d > 0."""
    g = math.gcd(n, d)
    return n // g, d // g


def _one_step(node: _Node, values, den, /, **data) -> lp.LpOutcome:
    """The node's one-step superhedging LP, posed, solved and certified:
    minimize α over (α, holdings) with α + holdings·increment_j ≥ values[j]/den
    on every child j, for integer values over one ``den`` > 0.  A child
    valued −inf, the one float a value takes, constrains nothing, so it gets
    no row; a type test tells it apart.  Every row is handed to ``lp`` over
    the lcm of the node's denominators and ``den``
    (``lp.rows_from_columns``).

    α = max of the values with no holdings is feasible, so an infeasible
    outcome raises ``InternalInconsistency``.  An optimal one is certified
    from its own duals, without trusting ``lp``: the duals y on the rows
    must be ≥ 0, sum to 1, have Σ_j y_j·Δ_j = 0 for every moving asset and
    y·b = the optimum.  They are then a martingale measure on the kept
    children, so every (α, holdings) that superhedges b has
    α = Σ_j y_j·(α + holdings·Δ_j) ≥ y·b (weak duality), and the optimum is
    the least one-step price.  With y as the outcome's integers w over d,
    each of these is one integer sum: y·b is Σ_j w_j·b_j over d·den.
    Otherwise ``InternalInconsistency``.  Either raise carries ``data`` and
    the outcome."""
    kept = [j for j, v in enumerate(values) if type(v) is not float]
    E = len(node.columns)
    b = [values[j] for j in kept]
    columns = [([1] * len(kept), 1), *[([ints[j] for j in kept], d) for ints, d in node.columns]]
    rows = lp.rows_from_columns(columns, b, den)
    outcome = lp.solve(lp.LpProblem.from_integers(([1] + [0] * E, 1), rows,
                                                  [">="] * len(rows),
                                                  free=range(E + 1), sense="min"))
    if outcome.status == lp.INFEASIBLE:
        raise InternalInconsistency("superreplication LP cannot be infeasible",
                                    outcome=outcome, **data)
    if outcome.status == lp.OPTIMAL:
        w, d = outcome.int_dual
        on, od = outcome.int_value
        if not (len(w) == len(kept) and all(v >= 0 for v in w) and sum(w) == d
                and not any(sum([v * col[j] for v, j in zip(w, kept)])
                            for col, _ in node.columns)
                and sum([v * x for v, x in zip(w, b)]) * od == on * d * den):
            raise InternalInconsistency("one-step superhedging price failed re-verification",
                                        outcome=outcome, **data)
    return outcome


def _keyed(placed) -> list:
    """The ``((t, asset, cell), units)`` pairs of holdings ``coefficients``
    in the moving assets of ``node``, for each (node, coefficients) pair of
    ``placed``."""
    return [((node.t, a, node.cell), coef) for node, coefficients in placed
            for a, coef in zip(node.assets, coefficients)]


def _strategy_from_coefficients(placed) -> Strategy:
    """The ``Strategy`` of ``_keyed(placed)``."""
    return Strategy(_keyed(placed))


def _verified_arbitrage(model, holdings, den: int = 1) -> None:
    """Check that the holdings ``((t, asset, cell), units)`` over ``den``
    (``_gain_ints``) gain ≥ 0 and ≠ 0: the one check of an arbitrage.
    Decided on ``_gain_ints``' numerators, whose denominators are positive;
    a ``Strategy`` and its gain are built only for the raise."""
    holdings = list(holdings)
    gain, _ = _gain_ints(model, holdings, den)
    if not any(gain) or any(n < 0 for n in gain):
        strategy = Strategy({key: Fraction(h, den) for key, h in holdings})
        raise InternalInconsistency("arbitrage witness failed re-verification",
                                    model=model, strategy=strategy,
                                    payoff=terminal_gain(model, strategy))


@dataclass(frozen=True)
class NaResult:
    """NA's answer: it holds exactly when no arbitrage was found."""

    arbitrage: Optional[Strategy] = None

    @property
    def holds(self) -> bool:
        return self.arbitrage is None


def check_na(model: MarketModel) -> NaResult:
    """No arbitrage: the payoff cone meets the nonnegative orthant only at 0.

    Decided node by node, since a market has an arbitrage iff one of its
    nodes has.  At each node with a moving asset, the LP maximizes the total
    payoff over holdings with payoff ≥ 0, capped at 1 per child so the
    cone's scaling cannot blow up the LP: the optimum is 0 exactly when the
    node has no arbitrage.  The first node that has one yields an explicit
    strategy whose payoff is re-verified to be ≥ 0 and ≠ 0.  A node passes
    with its representative (``node.market``): positively proportional
    columns span the same cone, so the first node with an arbitrage is
    always a representative.
    """
    for i, node in enumerate(_built(model, _build_nodes)):
        if node.market != i or not node.columns:
            continue
        # each child's floor row, payoff ≥ 0, then its cap row, payoff ≤ 1: the
        # floor row's integers with the rhs 1 over their own scale; the
        # objective, the total payoff, is the floor rows' sum
        floors = lp.rows_from_columns(node.columns, [0] * len(node.children), 1)
        rows = []
        for ints, s in floors:
            rows += [(ints, s), ([*ints[:-1], s], s)]
        objective = ([sum(column) for column in zip(*[ints[:-1] for ints, _ in floors])],
                     floors[0][1])
        problem = lp.LpProblem.from_integers(objective, rows, [">=", "<="] * len(node.children),
                                             free=range(len(node.columns)))
        outcome = lp.solve(problem)
        if outcome.status != lp.OPTIMAL:
            raise InternalInconsistency("arbitrage LP must be bounded and feasible",
                                        model=model, outcome=outcome)
        if outcome.int_value[0] != 0:
            strategy = _strategy_from_coefficients([(node, outcome.primal)])
            _verified_arbitrage(model, strategy.holdings)
            return NaResult(strategy)
    return NaResult()


@dataclass(frozen=True)
class EmmResult:
    measure: Optional[Measure] = None
    arbitrage: Optional[Strategy] = None


def martingale_residuals(model: MarketModel,
                         measure: Measure) -> dict[tuple[int, int, int], Fraction]:
    """The expectation under ``measure`` of every elementary gain, keyed by
    (t, asset index, cell index at t−1) like ``_gains``, in that order.  The
    measure's mass is summed bottom-up, cell by cell, as integers over one
    denominator, and each residual is one integer sum over a node's children
    of mass·increment, a ``Fraction`` only where it is not 0, so a large
    tree costs one pass per node."""
    if measure.space != model.space:
        raise StructureError("measure on a different sample space")
    steps = _built(model, _build_steps)
    weights, den = measure._int_weights
    mass = [weights]  # over den; the cells at T are the outcomes, in order
    for kids, _ in reversed(steps[1:]):
        below = mass[-1]
        mass.append([sum([below[c] for c in children]) for children in kids])
    mass.reverse()  # mass[t − 1]: the mass of each cell at t, over den
    residuals = {}
    for t, ((kids, moves), below) in enumerate(zip(steps, mass), start=1):
        for a, (ints, step) in enumerate(moves):
            for ci, children in enumerate(kids):
                total = sum([below[c] * ints[c] for c in children])
                residuals[t, a, ci] = Fraction(total, den * step) if total else _ZERO
    return residuals


def is_martingale_measure(model: MarketModel, measure: Measure) -> bool:
    """Exact check of every conditional martingale equality: every residual
    of ``martingale_residuals`` is 0."""
    return not any(martingale_residuals(model, measure).values())


def _verified_emm(model: MarketModel, weights) -> Measure:
    """The measure with these weights, checked to be a probability measure,
    equivalent, and a martingale measure: the one check of an EMM."""
    try:
        measure = Measure(model.space, weights)
    except StructureError as exc:  # the weights do not make a probability measure
        raise InternalInconsistency(f"martingale measure failed re-verification: {exc}",
                                    model=model, weights=weights) from None
    if not measure.is_equivalent or not is_martingale_measure(model, measure):
        raise InternalInconsistency("martingale measure failed re-verification",
                                    model=model, measure=measure)
    return measure


def find_emm(model: MarketModel) -> EmmResult:
    """An equivalent martingale measure, or an arbitrage certifying none exists.

    Each node solves for a one-step conditional EMM over its children, and
    the measure of an outcome is the product of the node weights along its
    path.  Strict positivity is obtained in a single solve per node by
    maximizing the minimum weight m subject to the martingale equalities;
    the optimum is positive exactly when the node has an EMM.  The LP is
    posed over (s_1..s_k, m) ≥ 0, in that order, with each child's weight
    q_j = m + s_j: maximize m subject to Σ_j s_j + k·m = 1 and, for each
    moving asset, Σ_j s_j·Δ_j + m·ΣΔ = 0, one row per equation and no floor
    row q_j ≥ m per child.  Otherwise the same solve's certificate is the
    node's arbitrage, read off the multipliers y of the martingale rows.
    At optimum 0 the first row's dual is 0, so the dual constraints give
    Σ_a y_a·Δ_a ≥ 0 on every child (the s_j columns) with a total ≥ 1 (the
    m column): a payoff Σ y·gain ≥ 0 and ≠ 0.  When the LP is infeasible
    the Farkas vector gives a payoff > 0 on every child.  A node takes the
    weights of its representative (``node.market``), whose martingale rows
    are its own scaled by positive factors, so they solve its equations.
    They are the weights its own LP would give wherever that LP has a single
    optimum, as at every node of a CRR or trinomial tree.  Where it has
    several, its own solve could end at another: phase one weights each
    row's artificial variable by that row's scale, and the two nodes' rows
    differ in scale.  Each representative's weights are the LP's primal
    integers over one denominator, so the measure is carried down the tree
    as integer pairs, one product per cell, and each outcome is one
    ``Fraction`` at the end.
    """
    nodes = _built(model, _build_nodes)
    steps = {}  # per representative, its weights q as integers over one denominator
    for i, node in enumerate(nodes):
        if node.market != i:
            continue
        k = len(node.children)
        rows = [([1] * k + [k, 1], 1)]
        rows += [([*ints, sum(ints), 0], den) for ints, den in node.columns]
        objective = ([0] * k + [1], 1)
        outcome = lp.solve(lp.LpProblem.from_integers(objective, rows, ["=="] * len(rows)))
        if outcome.status != lp.OPTIMAL or outcome.int_value[0] <= 0:
            multipliers = outcome.dual[1:1 + len(node.columns)]
            strategy = _strategy_from_coefficients([(node, multipliers)])
            _verified_arbitrage(model, strategy.holdings)
            return EmmResult(arbitrage=strategy)
        (*s, m), d = outcome.int_primal
        q = [m + v for v in s]
        g = math.gcd(d, *q)
        steps[i] = [v // g for v in q], d // g
    parts = model.filtration.partitions
    # each cell's weight is n/d, as the pair (n, d)
    weights = [[(1, 1)]] + [[(0, 1)] * len(cells) for cells in parts[1:]]
    for node in nodes:
        n, d = weights[node.t - 1][node.cell]
        ints, den = steps[node.market]
        d *= den
        below = weights[node.t]
        for c, q in zip(node.children, ints):
            below[c] = (n * q, d)
    # the cells at T are the outcomes, in order
    return EmmResult(measure=_verified_emm(model, [Fraction(n, d) for n, d in weights[-1]]))


@dataclass(frozen=True)
class Superreplication:
    price: Price
    hedge: Optional[Strategy] = None


def superreplication_price(model: MarketModel, payoff: RandomVariable) -> Superreplication:
    """Cheapest initial wealth whose terminal value dominates the payoff.

    Backward induction through the nodes: each node minimizes α over
    (α, holdings) with α + holdings·increment ≥ the child's price on every
    child.  A child priced −inf constrains nothing, and an unbounded node is
    priced −inf.  The hedge is then built top-down from each node's primal;
    where an unbounded node must still deliver from finite wealth w, the
    primal moves along the LP's ray until its α is at most w.  The price is
    −inf only when the market admits a strictly positive gain (arbitrage),
    in which case no hedge is returned.

    Cash is free and the superhedging set is a cone, so a node's one-step
    price is cash-additive and positively homogeneous: π(lo + s·b) =
    lo + s·π(b) for s > 0 (Föllmer & Schied, *Stochastic Finance*, ch. 7).
    Its LP is therefore solved once per class of nodes with the same
    representative (``node.market``) and the same shape of child prices:
    the finite prices as integers over their lcm, minus the least, over the
    gcd of the differences, each −inf child kept in its place; a node's lo
    is its least finite child price and s that gcd over the lcm.  The first
    node of a class solves its own prices on the representative's columns,
    so its answer is the one its own solve gives, and the class keeps the
    optimum, α and holdings in shape units, (x − lo)/s and h/s; every node
    of the class takes lo + s·π, lo + s·α and s·h for its own lo and s,
    each asset's holdings divided by its ``ratio``.  An optimal class solve
    is certified from its duals by ``_one_step``, so every node
    of the class is priced at its least one-step price, and each node's
    (α, holdings) superhedges its own child prices.  Where a node's own LP
    has several optimal vertices, or is unbounded, its own solve could end
    elsewhere, since the cash shift lo moves the rows' right-hand sides
    and so Bland's pivot path.  Nodes with all children priced −inf and
    equally many moving assets share one solve: that LP has no rows.  An
    optimal node's holdings do not depend on its wealth.  A node whose hedge
    follows a ray reads its wealth w as α plus the gain, from
    ``_gain_ints``, of the holdings placed so far, at its cell's first
    outcome: holdings at t do not move a cell at t − 1, so that is one walk
    for each t that has such a node.

    Each cell's price is carried as an integer pair (n, d) in lowest terms,
    −inf as the one float, from the payoff's values up: a node's shape key
    is read off its children's pairs over their lcm, the first node of a
    class hands ``_one_step`` those integers and reads α and the holdings
    off its outcome as integer pairs, and the root's price is one
    ``Fraction``.  The hedge is checked on integers too:
    with α = an/ad, each outcome's gain g/s from ``_gain_ints`` and its
    payoff pn/pd, α + g/s ≥ pn/pd is (an·s + g·ad)·pd ≥ pn·ad·s.
    """
    if payoff.space != model.space:
        raise StructureError("payoff on a different sample space")
    if not payoff.is_nonneg:
        raise StructureError("superreplication expects a nonnegative payoff")
    parts = model.filtration.partitions
    # each cell's price as the pair (n, d) in lowest terms, or −inf, the one float
    prices: list[list] = [[None] * len(cells) for cells in parts[:-1]]
    prices.append([v.as_integer_ratio() for v in payoff.values])  # the outcomes, in order
    nodes = _built(model, _build_nodes)
    # per class, its ray (None when optimal) and its (α, holdings) in shape
    # units as integer pairs n/d; per node, bottom-up, its class and the
    # integers (least, g, den) that map a shape value x to (least + g·x)/den
    classes, placed = {}, []
    for node in reversed(nodes):
        below = prices[node.t]
        values = [below[c] for c in node.children]
        finite = [v for v in values if type(v) is not float]  # −inf is the one float
        if finite:
            den = math.lcm(*[d for _, d in finite])
            # the values as integers over den, −inf kept in its place
            values = [v if type(v) is float else v[0] * (den // v[1]) for v in values]
            ints = [v for v in values if type(v) is not float]
            least = min(ints)
            g = math.gcd(*[v - least for v in ints]) or den  # equal prices: s = 1
            key = (node.market, tuple([v if type(v) is float else (v - least) // g
                                       for v in values]))
        else:
            key, least, g, den = len(node.columns), 0, 1, 1
        unit = classes.get(key)
        if unit is None:
            outcome = _one_step(nodes[node.market], values, den, model=model, payoff=payoff)
            (alpha, *holdings), hd = outcome.int_primal
            n, d = outcome.int_value if outcome.status == lp.OPTIMAL else (alpha, hd)
            # the ray's integers alone: its denominator cancels in the hedge's step·ray
            ray = None if outcome.int_ray is None else outcome.int_ray[0]
            # (den·α − least)/g and den·h/g, left unreduced: each node reduces its own
            unit = classes[key] = (ray, [(den * n - least * d, d * g),
                                         *[(den * h, hd * g) for h in holdings]])
        ray, ((n, d), *_) = unit
        prices[node.t - 1][node.cell] = (-math.inf if ray is not None
                                         else _lowest(least * d + g * n, den * d))
        placed.append((unit, least, g, den))
    if type(prices[0][0]) is float:
        return Superreplication(price=-math.inf)
    an, ad = prices[0][0]
    alpha = Fraction(an, ad)
    held, walked = [], 0  # walked: the t that (gain, scale) was last walked for
    for node, (unit, least, g, den) in zip(nodes, reversed(placed)):
        ray, ((n, d), *point) = unit
        if ray is None:
            holdings = [Fraction(g * hn * rd, den * hd * rn)
                        for (hn, hd), (rn, rd) in zip(point, node.ratio)]
        else:
            # the node's wealth: α plus the gain of the holdings placed so far,
            # at its cell's first outcome; holdings at t move no cell at t − 1,
            # so one walk serves every node at t
            if walked != node.t:
                walked = node.t
                gain, scale = _gain_ints(model, _keyed(held))
            o = parts[node.t - 1][node.cell][0]
            w = alpha + Fraction(gain[o], scale[o])
            step = max(_ZERO, (Fraction(least * d + g * n, den * d) - w) / -ray[0])
            holdings = [(Fraction(g * hn, den * hd) + step * dr) * Fraction(rd, rn)
                        for (hn, hd), dr, (rn, rd) in zip(point, ray[1:], node.ratio)]
        held.append((node, holdings))
    hedge = _strategy_from_coefficients(held)
    # α + gain/s ≥ pn/pd, times ad·s·pd > 0, on every outcome
    gain, scale = _gain_ints(model, hedge.holdings)
    if not all((an * s + v * ad) * pd >= pn * ad * s
               for v, s, (pn, pd) in zip(gain, scale, prices[-1])):
        raise InternalInconsistency("superreplication hedge failed re-verification",
                                    model=model, payoff=payoff, hedge=hedge)
    return Superreplication(price=alpha, hedge=hedge)


def in_budget_set(model: MarketModel, x: RandomVariable, alpha) -> bool:
    """Membership of x in ℬ_α: 0 ≤ x ≤ α + gain(ξ) for some strategy ξ."""
    if x.space != model.space:
        raise StructureError("point on a different sample space")
    alpha = as_fraction(alpha)
    if alpha < 0:
        raise StructureError("budget level must be >= 0")
    if not x.is_nonneg:
        return False
    _, problem = _budget_problem(model, None, to_integers([v - alpha for v in x.values]))
    return lp.feasible(problem)


def check_na1(model: MarketModel) -> bool:
    """No arbitrage of the first kind: every outcome indicator has a strictly
    positive superreplication price.

    Decided from one-step prices: NA₁ holds iff every node prices the
    indicator 1_c of each of its children c above 0.  Write π_v(b) for node
    v's one-step price of child values b, the LP of ``superreplication_price``
    (a child valued −inf gets no row, and an unbounded LP is −inf).  π_v is
    monotone, since raising a value (from −inf too) only tightens or adds a
    row, and positively homogeneous; α = max b with no holdings superhedges,
    so π_v(b) ≤ max b.  The price of a payoff at a cell is π of its
    children's prices, by backward induction.

    * If π_v(1_c) ≤ 0 (−inf included), take an outcome ω below c.  The price
      of 1_ω is at most 1 at c and at most 0 at every other child of v, so
      at v it is at most π_v(1_c) ≤ 0 by monotonicity.  Every ancestor then
      sees child prices ≤ 0, so the price stays ≤ 0 up to the root.
    * If every π_v(1_c) > 0, each is a bounded LP whose row duals y form a
      martingale measure on v's children with y_c > 0.  Averaged over c they
      give a strictly positive one, ȳ, and weak duality gives
      π_v(b) ≥ Σ_j ȳ_j b_j.  Bottom-up, the price of 0 is then exactly 0 at
      every cell (never −inf), and homogeneity gives the price of 1_ω as the
      product, along ω's path, of π_v(1_c) for the child c the path takes:
      a product of positive numbers.

    Each child's indicator is posed shifted by cash, as 1_c − 1: value 0 at
    c and −1 at every other child.  α is free, so π_v(1_c) = 1 + π_v(1_c − 1),
    and the indicator fails exactly when that LP's optimum is ≤ −1 or it is
    unbounded; every row starts on its slack, so the LP has no phase one.
    By weak duality π_v(1_c′) ≥ y_c′ for every child c′ and every dual y of
    these LPs, so a child on which an earlier dual is positive needs no LP
    of its own.  A node with no moving asset prices every child indicator
    at exactly 1 and needs none, and neither does a node that is not its
    own representative (``node.market``): its indicator prices are the
    representative's, since rescaling holdings by ``ratio`` maps one's
    hedges onto the other's.

    The verdict is certified from the solves, without trusting ``lp``.  A
    failing LP's holdings h are a node arbitrage, checked as ``check_na``
    checks one: an optimum α ≤ −1 gives h·Δ_j ≥ 1{j=c} − 1 − α ≥ 1{j=c},
    and an unbounded LP's ray decreases α while keeping every row, so its
    holdings gain more than 0 on every child.  A passing LP is certified by
    ``_one_step``, as every one-step price is: its duals y are a martingale
    measure on the node's children with y·b = the optimum, which for
    b = 1_c − 1 is y_c − 1.  An optimum above −1 therefore has y_c > 0, so
    the mean of the duals a node used is a strictly positive martingale
    measure on its children, and by weak duality it bounds every indicator
    price below by its weight at that child, on the representative and on
    every node that shares it.
    """
    for i, node in enumerate(_built(model, _build_nodes)):
        if node.market != i or not node.columns:
            continue
        k = len(node.children)
        covered = [False] * k
        for c in range(k):
            if covered[c]:
                continue
            values = [-1] * k
            values[c] = 0
            outcome = _one_step(node, values, 1, model=model, node=node)
            # an optimum n/d > −1, for d > 0, is n > −d
            if outcome.status == lp.OPTIMAL and outcome.int_value[0] > -outcome.int_value[1]:
                covered = [done or y > 0 for done, y in zip(covered, outcome.int_dual[0])]
                continue
            # π_v(1_c) ≤ 0: the holdings of the primal, or of the ray, are an arbitrage
            ints, d = outcome.int_primal if outcome.status == lp.OPTIMAL else outcome.int_ray
            _verified_arbitrage(model, _keyed([(node, ints[1:])]), d)
            return False
    return True


def _budget_problem(model: MarketModel, weights, rhs) -> tuple[list, lp.LpProblem]:
    """ℬ_α's one LP form: maximize Σ_i w_i·gain(ξ)_i over free
    coefficients ξ, one per nonzero elementary gain, subject to
    gain(ξ)_i ≥ rhs_i on every outcome i: with rhs x − α, whether x ∈ ℬ_α;
    with rhs −1, the ceiling of ℬ₁, whose maximal points are 1 + gain(ξ)
    (``_budget_ceiling``).  A row's rhs −1 is flipped to a ``<=`` row with
    rhs 1, so the ceiling starts on a slack basis and has no phase one.
    The weights w and the rhs are each given as integers over one
    denominator, the weights as None for membership, which has no
    objective.

    Rows come from the gains' integers (``lp.rows_from_columns``), and a
    gain's objective entry is one integer sum, Σ_i w_i·ints_i over the
    weights' denominator times the gain's, lifted to the lcm of the gains'
    denominators.  Returns the coefficients' ``_gains`` keys, in column
    order, and the LP."""
    gains = {key: g for key, g in _built(model, _gains).items() if any(g[0])}
    if weights is None:  # membership skips a sum per gain
        objective = ([0] * len(gains), 1)
    else:
        wints, wden = weights
        big = math.lcm(*[den for _, den in gains.values()])
        objective = ([sum([w * v for w, v in zip(wints, ints) if v]) * (big // den)
                      for ints, den in gains.values()], wden * big)
    rows = lp.rows_from_columns(gains.values(), *rhs)
    problem = lp.LpProblem.from_integers(objective, rows, [">="] * len(rows),
                                         free=range(len(gains)))
    return list(gains), problem


def _budget_ceiling(model: MarketModel, weights) -> lp.LpOutcome:
    """The ceiling of ℬ₁ under weights w > 0, given as integers over one
    denominator, posed, solved and certified: maximize Σ_i w_i·gain(ξ)_i
    subject to gain(ξ) ≥ −1, the whole-market twin of ``_one_step``.  ξ = 0
    is feasible, so an infeasible outcome raises.

    An unbounded LP's ray gains ≥ 0 with a positive weighted total: an
    arbitrage (``_verified_arbitrage``).  An optimal LP's duals y satisfy
    Σ_i (w_i − y_i)·g_i = 0 for every gain g, so w − y, normalized, must be
    an EMM (``_verified_emm``); then y ≤ 0 and −Σy = the optimum give
    Σ w·gain(ξ) = Σ y·gain(ξ) ≤ −Σy for every feasible ξ (the dual bound).
    With w as integers over wd and y as the outcome's integers v over d, the
    EMM's weights are w·d − v·wd and the bound is one integer sum.  Every
    raise is an ``InternalInconsistency`` carrying the model."""
    keys, problem = _budget_problem(model, weights, ([-1] * len(model.space), 1))
    outcome = lp.solve(problem)
    if outcome.status == lp.UNBOUNDED:
        _verified_arbitrage(model, zip(keys, outcome.int_ray[0]), outcome.int_ray[1])
    elif outcome.status != lp.OPTIMAL:  # ξ = 0 is feasible
        raise InternalInconsistency("budget LP cannot be infeasible", model=model, outcome=outcome)
    else:
        (wints, wd), (ints, d) = weights, outcome.int_dual
        emm = [w * d - v * wd for w, v in zip(wints, ints)]
        total = sum(emm)
        # a zero total cannot be normalized: left over d·wd, Measure rejects it
        _verified_emm(model, [Fraction(q, total or d * wd) for q in emm])
        on, od = outcome.int_value
        if any(v > 0 for v in ints) or -sum(ints) * od != on * d:
            raise InternalInconsistency("budget ceiling failed re-verification",
                                        model=model, outcome=outcome)
    return outcome


def check_nupbr(model: MarketModel) -> bool:
    """Boundedness of the unit budget set {x ≥ 0 : x ≤ 1 + gain}: whether its
    ceiling under unit weights is finite, as ``_budget_ceiling`` certifies."""
    return _budget_ceiling(model, ([1] * len(model.space), 1)).status == lp.OPTIMAL


def emm_budget(model: MarketModel, measure: Measure) -> Price:
    """sup of E_Q over the unit budget set; exactly 1 when Q is an EMM.

    Q is equivalent, so the supremum is attained at 1 + gain(ξ): 1 plus the
    ceiling under Q's weights (``_budget_ceiling``), +inf when unbounded."""
    if measure.space != model.space:
        raise StructureError("measure on a different sample space")
    if not measure.is_equivalent:
        raise StructureError("budget bound requires an equivalent measure")
    outcome = _budget_ceiling(model, measure._int_weights)
    return math.inf if outcome.status == lp.UNBOUNDED else _ONE + outcome.objective_value
