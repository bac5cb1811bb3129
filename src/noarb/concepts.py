"""Named no-arbitrage concepts decided by independent routes, cross-checked.

On a finite outcome space the classical concept zoo collapses: no arbitrage,
no arbitrage of the first kind, no unbounded profit with bounded risk, the
free-lunch variants (the relevant cone is polyhedral, hence closed, so every
closure-strengthened condition coincides with plain NA), existence of an
equivalent martingale measure, and existence of a strictly positive
separating functional are all equivalent.  ``full_verdict`` computes each by
its own route and raises if they ever disagree; that disagreement hook is
the library's primary regression tripwire.  NA, NA₁ and the EMM are decided
node by node through the information tree; NUPBR and the separator are
whole-market LPs, so the tripwire pits two algorithms against each other.
Each route asks its question once: NA₁ solves a node LP only for a child
indicator that no earlier dual at that node already prices above 0, and
the separator route separates only the outcomes no earlier separator is
positive on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import InternalInconsistency
from .market import (
    MarketModel,
    Strategy,
    check_na,
    check_na1,
    check_nupbr,
    find_emm,
    payoff_cone,
)
from .separation import strict_separator_exists


@dataclass(frozen=True)
class ConceptVerdicts:
    na: bool
    na1: bool
    nupbr: bool
    emm_exists: bool
    separator_exists: bool
    arbitrage: Optional[Strategy] = field(default=None, compare=False)

    @property
    def nfl_equiv(self) -> bool:
        """NA's verdict: the widened payoff cone is polyhedral, hence closed."""
        return self.na

    def as_dict(self) -> dict[str, bool]:
        """The compared fields by name, in order, with ``nfl_equiv`` after ``nupbr``."""
        names = ("na", "na1", "nupbr", "nfl_equiv", "emm_exists", "separator_exists")
        return {name: getattr(self, name) for name in names}

    @property
    def agree(self) -> bool:
        return len(set(self.as_dict().values())) == 1


def full_verdict(model: MarketModel) -> ConceptVerdicts:
    """The six verdicts, five by their own decision routes, asserted to agree.

    NA runs the arbitrage LP at each tree node; NA₁ asks every node for a
    positive one-step price of each child's indicator, whose products along
    the paths are the outcome indicators' prices; NUPBR bounds the unit
    budget set in one whole-market LP; the martingale route multiplies
    one-step conditional measures along each path; the separation route
    decides whether the whole widened payoff cone has a strictly positive
    separating functional, by exhaustion over the outcome indicators.
    The free-lunch verdict is NA's (``ConceptVerdicts.nfl_equiv``).
    ``arbitrage`` carries NA's witness when NA fails; it is not a verdict,
    so it stays out of ``as_dict`` and equality.
    """
    na = check_na(model)
    verdicts = ConceptVerdicts(
        na=na.holds,
        na1=check_na1(model),
        nupbr=check_nupbr(model),
        emm_exists=find_emm(model).measure is not None,
        separator_exists=strict_separator_exists(payoff_cone(model)),
        arbitrage=na.arbitrage,
    )
    if not verdicts.agree:
        raise InternalInconsistency(
            f"concept routes disagree: {verdicts.as_dict()}",
            verdicts=verdicts, model=model)
    return verdicts
