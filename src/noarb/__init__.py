"""noarb: exact-arithmetic no-arbitrage analysis for finite-state markets.

The library decides no-arbitrage properties, computes equivalent martingale
measures and superreplication prices by exact rational linear programming,
and makes the gauge machinery of convex semi-solid sets executable in finite
dimensions.  No floating point is used anywhere on a decision path.
"""

from .concepts import ConceptVerdicts, full_verdict
from .cones import (
    PolyhedralCone,
    SemiSolidSet,
    cone_member,
    minkowski,
    semisolid_member,
    sup_norm,
    sup_squared_norm,
    zero_set_trivial,
)
from .errors import InternalInconsistency, StructureError
from .lab import (
    CounterexampleReport,
    LemmaSuiteReport,
    build_counterexample,
    counterexample_report,
    random_market,
    random_semisolid,
    verify_lemma_suite,
)
from .lattice import Measure, RandomVariable, SampleSpace
from .lp import LpOutcome, LpProblem, feasible, solve
from .market import (
    Asset,
    EmmResult,
    Filtration,
    MarketModel,
    NaResult,
    Strategy,
    Superreplication,
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
from .separation import StrictSeparation, separate_at, strict_separator

__version__ = "0.1.0"
