"""Social-cost metrics: fairness, price of anarchy, price of stability.

Theorem 4 of the paper is stated in terms of three quantities:

* the *social cost* of a profile — the sum of all node costs;
* the *price of anarchy* (PoA) — worst equilibrium social cost divided by the
  optimum social cost;
* the *price of stability* (PoS) — best equilibrium social cost divided by
  the optimum social cost.

The exact optimum is NP-hard in general, so the uniform-game helpers use the
paper's analytic lower bound (every out-degree-k node has cost at least the
layered ``k, k², ...`` distance profile) as the denominator, which only makes
the reported ratios conservative (they under-estimate PoA/PoS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Optional

from .game import BBCGame, UniformBBCGame
from .profile import StrategyProfile

Node = Hashable


@dataclass(frozen=True)
class FairnessReport:
    """How evenly costs are spread across nodes (Lemma 1 studies this)."""

    min_cost: float
    max_cost: float
    mean_cost: float
    ratio: float
    additive_gap: float

    @staticmethod
    def from_costs(costs: Mapping[Node, float]) -> "FairnessReport":
        """Build a report from a ``{node: cost}`` mapping."""
        values = list(costs.values())
        if not values:
            return FairnessReport(0.0, 0.0, 0.0, 1.0, 0.0)
        low = min(values)
        high = max(values)
        mean = sum(values) / len(values)
        ratio = high / low if low > 0 else math.inf
        return FairnessReport(
            min_cost=low,
            max_cost=high,
            mean_cost=mean,
            ratio=ratio,
            additive_gap=high - low,
        )


def social_cost(game: BBCGame, profile: StrategyProfile) -> float:
    """Return the total cost of all players under ``profile``."""
    return game.social_cost(profile)


def fairness_report(game: BBCGame, profile: StrategyProfile) -> FairnessReport:
    """Return the fairness statistics of ``profile``."""
    return FairnessReport.from_costs(game.all_costs(profile))


def lemma1_additive_bound(game: UniformBBCGame) -> float:
    """Return the additive fairness bound ``n + n * floor(log_k n)`` of Lemma 1."""
    n, k = game.n, game.k
    return n + n * math.floor(math.log(n, k)) if k > 1 else n + n * (n - 1)


def lemma1_multiplicative_bound(game: UniformBBCGame) -> float:
    """Return the asymptotic multiplicative fairness bound ``2 + 1/k`` of Lemma 1.

    The paper's bound is ``2 + 1/k + o(1)``; callers comparing against it on
    finite instances should allow the ``o(1)`` slack.
    """
    return 2.0 + 1.0 / game.k


def uniform_social_optimum_lower_bound(game: UniformBBCGame) -> float:
    """Return the analytic lower bound on the social optimum of a uniform game."""
    return game.minimum_possible_social_cost()


def price_of_anarchy(
    game: BBCGame,
    equilibria: Iterable[StrategyProfile],
    optimum: Optional[float] = None,
) -> float:
    """Return the PoA estimate over the supplied equilibria.

    ``optimum`` defaults to the analytic lower bound for uniform games (and
    must be provided for non-uniform games).
    """
    costs = [game.social_cost(profile) for profile in equilibria]
    if not costs:
        raise ValueError("price_of_anarchy needs at least one equilibrium")
    denominator = _resolve_optimum(game, optimum)
    return max(costs) / denominator


def price_of_stability(
    game: BBCGame,
    equilibria: Iterable[StrategyProfile],
    optimum: Optional[float] = None,
) -> float:
    """Return the PoS estimate over the supplied equilibria."""
    costs = [game.social_cost(profile) for profile in equilibria]
    if not costs:
        raise ValueError("price_of_stability needs at least one equilibrium")
    denominator = _resolve_optimum(game, optimum)
    return min(costs) / denominator


def _resolve_optimum(game: BBCGame, optimum: Optional[float]) -> float:
    if optimum is not None:
        if optimum <= 0:
            raise ValueError("the social optimum must be positive")
        return optimum
    if isinstance(game, UniformBBCGame):
        return uniform_social_optimum_lower_bound(game)
    raise ValueError("an explicit social optimum is required for non-uniform games")


# --------------------------------------------------------------------------- #
# Theoretical bound helpers (used by the benchmark tables)
# --------------------------------------------------------------------------- #
def theorem4_poa_lower_bound(n: int, k: int) -> float:
    """Return the Ω(sqrt(n/k) / log_k n) PoA lower bound expression (no constant)."""
    if k < 2:
        raise ValueError("the bound is stated for k >= 2")
    return math.sqrt(n / k) / math.log(n, k)


def theorem4_poa_upper_bound(n: int, k: int) -> float:
    """Return the O(sqrt(n) * log_k n) PoA upper bound expression (no constant).

    Theorem 4 bounds the worst equilibrium's per-node cost by
    ``O(sqrt(n) log_k n)`` (via the Lemma 7 diameter bound) against a
    ``Ω(n log_k n)`` optimum per node, i.e. a ratio of ``O(sqrt(n)/log_k n)``
    — but the statement in the paper reports ``O(sqrt(n)·?)``; we expose the
    ratio form actually derived in the proof: ``sqrt(n) / log_k n``.
    """
    if k < 2:
        raise ValueError("the bound is stated for k >= 2")
    return math.sqrt(n) / math.log(n, k)


def theorem8_max_poa_lower_bound(n: int, k: int) -> float:
    """Return the Ω(n / (k log_k n)) BBC-max PoA lower bound expression."""
    if k < 2:
        raise ValueError("the bound is stated for k >= 2")
    return n / (k * math.log(n, k))


def willow_total_cost_upper_bound(n: int, k: int) -> float:
    """Return the O(n² log_k n) social-cost scale of tail-free willow forests."""
    if k < 2:
        raise ValueError("the bound is stated for k >= 2")
    return n * n * math.log(n, k)


def willow_total_cost_lower_bound(n: int, k: int) -> float:
    """Return the Ω(n² sqrt(n/k)) social-cost scale of maximal-tail willow forests."""
    return n * n * math.sqrt(n / k)
