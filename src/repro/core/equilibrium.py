"""Pure Nash equilibrium verification.

A profile is *stable* (a pure Nash equilibrium) when no single node can lower
its cost by unilaterally re-buying its links.  The verifier computes an exact
best response for every node and reports the per-node regret, so callers get
both a boolean verdict and a quantitative picture of how far a profile is
from stability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

from .best_response import BestResponseResult, best_response, single_swap_response
from .game import BBCGame, DEFAULT_ENUMERATION_LIMIT
from .profile import StrategyProfile

Node = Hashable


def _report_engine(game, profile, candidates, engine):
    """Resolve ``engine`` and stage a giant-batch plan for a full report.

    Reports probe *every* node against the same profile, so the whole row
    working set is known up front; handing it to
    :meth:`~repro.engine.cost_engine.CostEngine.plan_report_prefetch` lets
    the engine fill it chunk by chunk, one giant batch per chunk, instead
    of one small batch per node.  The engine plans exactly the nodes a
    restriction map lists, so a node the report's ``candidates`` leave out
    (every other node is its candidate) is listed with ``None``.  Returns
    the resolved engine to thread into the per-node probes (or ``engine``
    unchanged when the reference path was requested or the engine subsystem
    resolves to none).  Planning never changes a computed value, only the
    batching.
    """
    from ..engine import resolve_engine

    resolved = resolve_engine(game, engine)
    if resolved is None:
        return engine
    if candidates is not None:
        candidates = {node: candidates.get(node) for node in game.nodes}
    resolved.plan_report_prefetch(profile, candidates)
    return resolved


@dataclass(frozen=True)
class EquilibriumReport:
    """Result of checking every node of a profile for profitable deviations."""

    is_equilibrium: bool
    responses: Mapping[Node, BestResponseResult]
    tolerance: float

    @property
    def max_regret(self) -> float:
        """Return the largest improvement any single node could achieve."""
        if not self.responses:
            return 0.0
        return max(result.regret for result in self.responses.values())

    @property
    def unstable_nodes(self) -> Tuple[Node, ...]:
        """Return the nodes that have a profitable deviation."""
        return tuple(
            node for node, result in self.responses.items() if result.regret > self.tolerance
        )

    def describe(self) -> str:
        """Return a one-line-per-node summary used by benchmarks and examples."""
        lines = []
        verdict = "STABLE (pure Nash equilibrium)" if self.is_equilibrium else "NOT stable"
        lines.append(verdict)
        for node, result in sorted(self.responses.items(), key=lambda kv: repr(kv[0])):
            marker = "ok " if result.regret <= self.tolerance else "DEV"
            lines.append(
                f"  [{marker}] {node}: cost={result.current_cost:g} "
                f"best={result.best_cost:g} regret={result.regret:g}"
            )
        return "\n".join(lines)


def equilibrium_report(
    game: BBCGame,
    profile: StrategyProfile,
    *,
    candidates: Optional[Mapping[Node, Sequence[Node]]] = None,
    tolerance: float = 1e-9,
    limit: float = DEFAULT_ENUMERATION_LIMIT,
    engine=None,
) -> EquilibriumReport:
    """Check every node of ``profile`` for profitable deviations.

    ``candidates`` optionally restricts, per node, the targets considered in
    the deviation search; by default every other node is considered, which
    makes a positive verdict an exact pure-Nash certificate.

    All nodes are probed against the same profile, so the default flat-array
    engine computes each environment-distance row at most once for the whole
    report — and, because the whole working set is known up front, fills it
    with giant chunked multi-source traversals (see
    :meth:`~repro.engine.cost_engine.CostEngine.plan_report_prefetch`)
    instead of one small batch per node; ``engine=False`` forces the
    reference dict-based oracle.
    """
    game.validate_profile(profile)
    engine = _report_engine(game, profile, candidates, engine)
    responses: Dict[Node, BestResponseResult] = {}
    stable = True
    for node in game.nodes:
        node_candidates = None if candidates is None else candidates.get(node)
        result = best_response(
            game, profile, node, candidates=node_candidates, limit=limit, engine=engine
        )
        responses[node] = result
        if result.regret > tolerance:
            stable = False
    return EquilibriumReport(is_equilibrium=stable, responses=responses, tolerance=tolerance)


def is_pure_nash(
    game: BBCGame,
    profile: StrategyProfile,
    *,
    tolerance: float = 1e-9,
    limit: float = DEFAULT_ENUMERATION_LIMIT,
    engine=None,
) -> bool:
    """Return ``True`` when ``profile`` is a pure Nash equilibrium of ``game``.

    Short-circuits on the first node with a profitable deviation.
    """
    return (
        first_unstable_node(game, profile, tolerance=tolerance, limit=limit, engine=engine)
        is None
    )


def first_unstable_node(
    game: BBCGame,
    profile: StrategyProfile,
    *,
    tolerance: float = 1e-9,
    limit: float = DEFAULT_ENUMERATION_LIMIT,
    engine=None,
) -> Optional[BestResponseResult]:
    """Return the best response of the first node that wants to deviate, if any."""
    game.validate_profile(profile)
    for node in game.nodes:
        result = best_response(game, profile, node, limit=limit, engine=engine)
        if result.regret > tolerance:
            return result
    return None


def swap_stability_report(
    game: BBCGame,
    profile: StrategyProfile,
    *,
    tolerance: float = 1e-9,
    engine=None,
) -> EquilibriumReport:
    """Cheap necessary condition for stability: no improving single-link move.

    Exact best responses enumerate ``C(n-1, k)`` strategies per node, which is
    infeasible for very large uniform games.  Single-link swaps are a strict
    subset of deviations, so a profile flagged unstable here is certainly not
    a Nash equilibrium, while a "stable" verdict is only evidence.

    Like :func:`equilibrium_report` (and unlike the short-circuiting
    :func:`is_pure_nash` / :func:`first_unstable_node`, where staging rows
    for nodes that may never be probed would be wasted work), the full
    per-node sweep stages a giant-batch row plan up front.
    """
    game.validate_profile(profile)
    engine = _report_engine(game, profile, None, engine)
    responses: Dict[Node, BestResponseResult] = {}
    stable = True
    for node in game.nodes:
        result = single_swap_response(game, profile, node, engine=engine)
        responses[node] = result
        if result.regret > tolerance:
            stable = False
    return EquilibriumReport(is_equilibrium=stable, responses=responses, tolerance=tolerance)
