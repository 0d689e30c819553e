"""Exact and heuristic best responses.

The engine exploits the following exact decomposition.  Fix a node ``u`` and
the strategies of everyone else.  Any shortest path from ``u`` starts with one
of ``u``'s purchased links ``(u, a)`` and then never revisits ``u`` (revisiting
could not shorten it), so

    d(u, v)  =  min over purchased links (u, a) of  [ l(u, a) + d_{G-u}(a, v) ]

where ``d_{G-u}`` is the distance in the network formed by the *other* nodes'
links with ``u`` deleted.  The matrix ``d_{G-u}(a, v)`` does not depend on
``u``'s own strategy, so it is computed at most once per best response (one
BFS or Dijkstra per candidate target on the reference path; the engine serves
the same rows from its version-stamped cache, repairs them in place after a
single-node change, or fills them in giant batched traversals when a report
planned the working set) and every candidate strategy is then scored in
``O(|strategy| * |targets|)`` time.  This turns exact best responses over all
``C(n-1, k)`` strategies from thousands of graph traversals into one pass of
cheap arithmetic.

Two implementations share that decomposition:

* :class:`DeviationOracle` — the dict-based reference.  It rebuilds a
  label-keyed environment :class:`~repro.graphs.DiGraph` per probe and is kept
  for clarity and as the parity baseline;
* the flat-array :class:`~repro.engine.CostEngine` — the default.  It masks
  the probed node out of a shared int-indexed CSR snapshot of the profile and
  caches the ``d_{G-u}(a, ·)`` rows against a profile version stamp, so walks
  and equilibrium checks reuse everything a local strategy change did not
  invalidate.

``best_response``, ``greedy_response``, and ``single_swap_response`` route
through the engine by default; pass ``engine=False`` to force the reference
oracle, or an explicit :class:`~repro.engine.CostEngine` to control cache
sharing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..graphs import DiGraph, bfs_distances, dijkstra_distances
from .game import BBCGame, DEFAULT_ENUMERATION_LIMIT
from .profile import StrategyProfile, Strategy

Node = Hashable

#: The epsilon of the chained ``cost < best - CHAIN_EPS`` update rule: a
#: strategy replaces the best one only when it is cheaper by more than this,
#: so ties (and float noise) keep the current strategy.
CHAIN_EPS = 1e-9


@dataclass(frozen=True)
class BestResponseResult:
    """Outcome of one best-response computation for a single node."""

    node: Node
    current_strategy: Strategy
    current_cost: float
    best_strategy: Strategy
    best_cost: float
    evaluated: int
    improved: bool

    @property
    def regret(self) -> float:
        """Return how much the node could gain by deviating (0 when stable)."""
        return max(0.0, self.current_cost - self.best_cost)

    def apply(self, profile: StrategyProfile) -> StrategyProfile:
        """Return ``profile`` with this node's best response substituted in."""
        return profile.with_strategy(self.node, self.best_strategy)


class DeviationOracle:
    """Scores candidate strategies of one node against a fixed environment.

    Parameters
    ----------
    game, profile, node:
        The game, the current profile (only the *other* nodes' strategies are
        read), and the deviating node.
    candidates:
        Restrict the targets the node may link to.  Defaults to every other
        node.
    """

    def __init__(
        self,
        game: BBCGame,
        profile: StrategyProfile,
        node: Node,
        candidates: Optional[Sequence[Node]] = None,
    ) -> None:
        self.game = game
        self.node = node
        self.candidates: Tuple[Node, ...] = _normalized_candidates(game, node, candidates)
        self.penalty = game.disconnection_penalty
        self.objective = game.objective

        # Targets the node actually cares about (zero-weight targets cannot
        # change the cost under either objective).
        self.targets: Tuple[Node, ...] = tuple(
            v for v in game.nodes if v != node and game.weight(node, v) > 0
        )
        self.target_weights: Dict[Node, float] = {
            v: game.weight(node, v) for v in self.targets
        }

        # Environment graph: everyone else's links, with `node` deleted.
        environment = DiGraph()
        for other in game.nodes:
            if other != node:
                environment.add_node(other)
        for buyer, target in profile.edges():
            if buyer == node or target == node:
                continue
            environment.add_edge(buyer, target, length=game.link_length(buyer, target))
        self._environment = environment

        # Distance matrix d_{G-u}(a, v) for every candidate first hop a.
        uniform = game.has_uniform_lengths
        self._env_distances: Dict[Node, Dict[Node, float]] = {}
        for first_hop in self.candidates:
            if uniform:
                raw = bfs_distances(environment, first_hop)
                scale = game.max_link_length()
                self._env_distances[first_hop] = {
                    v: float(d) * scale for v, d in raw.items()
                }
            else:
                self._env_distances[first_hop] = dijkstra_distances(environment, first_hop)

        # Pre-compute l(u, a) for every candidate.
        self._first_hop_length: Dict[Node, float] = {
            a: game.link_length(node, a) for a in self.candidates
        }

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def distances_for(self, strategy: Iterable[Node]) -> Dict[Node, float]:
        """Return ``{target: distance}`` for the node playing ``strategy``.

        Only targets with positive preference weight are returned; unreachable
        targets map to the disconnection penalty.
        """
        strategy = tuple(strategy)
        distances: Dict[Node, float] = {}
        for target in self.targets:
            best = math.inf
            for first_hop in strategy:
                hop_length = self._first_hop_length.get(first_hop)
                if hop_length is None:
                    hop_length = self.game.link_length(self.node, first_hop)
                env = self._env_distances.get(first_hop)
                if env is None:
                    env = self._compute_env_distances(first_hop)
                through = env.get(target)
                if through is not None and hop_length + through < best:
                    best = hop_length + through
            distances[target] = best if best < math.inf else self.penalty
        return distances

    def cost_of(self, strategy: Iterable[Node]) -> float:
        """Return the node's cost when it plays ``strategy``."""
        distances = self.distances_for(strategy)
        weighted = {
            target: self.target_weights[target] * distance
            for target, distance in distances.items()
        }
        return self.objective.aggregate(weighted)

    def _compute_env_distances(self, first_hop: Node) -> Dict[Node, float]:
        """Compute (and cache) environment distances for an out-of-set candidate."""
        if self.game.has_uniform_lengths:
            raw = bfs_distances(self._environment, first_hop)
            scale = self.game.max_link_length()
            result = {v: float(d) * scale for v, d in raw.items()}
        else:
            result = dijkstra_distances(self._environment, first_hop)
        self._env_distances[first_hop] = result
        return result


def _normalized_candidates(
    game: BBCGame, node: Node, candidates: Optional[Sequence[Node]]
) -> Tuple[Node, ...]:
    """Return the candidate targets in oracle order (dedup, ``node`` removed)."""
    if candidates is None:
        candidates = [v for v in game.nodes if v != node]
    else:
        candidates = [v for v in candidates if v != node]
    return tuple(dict.fromkeys(candidates))


def _resolve_scorer(
    game: BBCGame,
    profile: StrategyProfile,
    node: Node,
    candidates: Optional[Sequence[Node]],
    engine,
):
    """Return ``(score_callable, engine_scorer_or_None)`` for ``node``.

    ``engine=None`` uses the shared per-game :class:`~repro.engine.CostEngine`,
    ``engine=False`` forces the reference :class:`DeviationOracle` (second
    element ``None``), and an explicit engine instance is used as-is (synced
    to ``profile``).
    """
    from ..engine import resolve_engine

    engine = resolve_engine(game, engine)
    if engine is None:
        return DeviationOracle(game, profile, node, candidates).cost_of, None
    engine.sync(profile)
    # Every row this probe can read arrives in one engine call up front (one
    # traversal for the missing ones, or the node's planned giant-batch
    # chunk), instead of trickling out of the scorer a row at a time.
    scorer = engine.probe_scorer(node, candidates)
    # With dense int labels `score` would just forward to `score_ints`; bind
    # the inner method directly and skip a call layer per candidate strategy.
    return (scorer.score_ints if scorer.identity_labels else scorer.score), scorer


def _make_scorer(
    game: BBCGame,
    profile: StrategyProfile,
    node: Node,
    candidates: Optional[Sequence[Node]],
    engine,
):
    """Return a ``score(strategy_labels) -> float`` callable for ``node``."""
    return _resolve_scorer(game, profile, node, candidates, engine)[0]


def chained_best_from_vector(costs, best_cost: float):
    """Replay the chained ``cost < best - CHAIN_EPS`` update rule over a cost vector.

    ``costs`` is a numpy vector in enumeration order; returns ``(best_cost,
    index_of_last_update)`` (index ``-1`` when nothing improved).  The
    comparisons are exactly the reference loop's, just driven by vectorised
    scans between updates.
    """
    best_index = -1
    threshold = best_cost - CHAIN_EPS
    position = 0
    total = len(costs)
    while position < total:
        mask = costs[position:] < threshold
        step = int(mask.argmax())
        if not mask[step]:
            break
        position += step
        best_cost = float(costs[position])
        best_index = position
        threshold = best_cost - CHAIN_EPS
        position += 1
    return best_cost, best_index


def batched_combination_costs(game, scorer, node, candidates, limit):
    """Batch-score the whole enumeration when possible.

    Returns ``(plan_candidates, size, costs)`` — the candidate order, the
    single combination size, and a numpy cost vector in
    ``itertools.combinations`` order — or ``None`` when the enumeration
    cannot be batch-scored.  Batch scoring needs an exact-sum fast-path
    scorer and an enumeration that :meth:`BBCGame.combination_plan` describes
    as a single combination size of 1 or 2 (the hot shapes); anything else
    falls back to the per-strategy loop.
    """
    if scorer is None or not scorer.fast_batch:
        return None
    plan = game.combination_plan(node, candidates, maximal_only=True, limit=limit)
    if plan is None:
        return None
    plan_candidates, sizes = plan
    if len(sizes) != 1 or sizes[0] not in (1, 2):
        return None
    size = sizes[0]
    ints = (
        plan_candidates
        if scorer.identity_labels
        else [scorer.index[target] for target in plan_candidates]
    )
    return plan_candidates, size, scorer.score_combinations(ints, size)


def deviation_scan(game, node, candidates, limit, score, scorer, current_cost):
    """Scan every budget-maximal strategy of ``node`` once, in enumeration order.

    Returns ``(chained, best_strategy, pure, evaluated)``: the chained best
    cost (seeded at ``current_cost``, replaced only when ``cost < best -
    CHAIN_EPS``), the strategy that set it (``None`` when nothing beat the
    current one), the pure minimum over all strategies (``inf`` when there
    are none), and how many strategies were scored.  Batch-scorable
    enumerations (:func:`batched_combination_costs`) are scored as one
    vector, the rest one ``score(strategy)`` at a time; both give the same
    four values.  :func:`best_response` and the sweep layer's full probe
    both scan through here.
    """
    best_strategy = None
    chained = current_cost
    pure = math.inf
    batch = batched_combination_costs(game, scorer, node, candidates, limit)
    if batch is not None:
        plan_candidates, size, costs = batch
        evaluated = len(costs)
        if evaluated:
            chained, best_index = chained_best_from_vector(costs, chained)
            pure = float(costs.min())
            if best_index >= 0:
                best_strategy = frozenset(
                    next(
                        itertools.islice(
                            itertools.combinations(plan_candidates, size),
                            best_index,
                            None,
                        )
                    )
                )
        return chained, best_strategy, pure, evaluated
    evaluated = 0
    for strategy in game.feasible_strategies(
        node, candidates, maximal_only=True, limit=limit
    ):
        evaluated += 1
        cost = score(strategy)
        if cost < chained - CHAIN_EPS:
            chained = cost
            best_strategy = strategy
        if cost < pure:
            pure = cost
    return chained, best_strategy, pure, evaluated


def best_response(
    game: BBCGame,
    profile: StrategyProfile,
    node: Node,
    *,
    candidates: Optional[Sequence[Node]] = None,
    limit: float = DEFAULT_ENUMERATION_LIMIT,
    engine=None,
) -> BestResponseResult:
    """Compute an exact best response for ``node`` against ``profile``.

    All budget-maximal strategies over ``candidates`` are enumerated and
    scored against the node's environment distances (flat-array engine by
    default, reference oracle with ``engine=False``).  Ties are broken in
    favour of the current strategy (so a stable node reports
    ``improved=False``) and otherwise by enumeration order, which is
    deterministic.
    """
    score, scorer = _resolve_scorer(game, profile, node, candidates, engine)
    current_strategy = profile.strategy(node)
    current_cost = score(current_strategy)
    best_cost, best_strategy, _, evaluated = deviation_scan(
        game, node, candidates, limit, score, scorer, current_cost
    )
    return BestResponseResult(
        node=node,
        current_strategy=current_strategy,
        current_cost=current_cost,
        best_strategy=best_strategy if best_strategy is not None else current_strategy,
        best_cost=best_cost,
        evaluated=evaluated,
        improved=best_cost < current_cost - CHAIN_EPS,
    )


def best_response_cost(
    game: BBCGame,
    profile: StrategyProfile,
    node: Node,
    *,
    candidates: Optional[Sequence[Node]] = None,
    limit: float = DEFAULT_ENUMERATION_LIMIT,
    engine=None,
) -> float:
    """Return only the optimal achievable cost for ``node`` (convenience)."""
    return best_response(
        game, profile, node, candidates=candidates, limit=limit, engine=engine
    ).best_cost


def greedy_response(
    game: BBCGame,
    profile: StrategyProfile,
    node: Node,
    *,
    candidates: Optional[Sequence[Node]] = None,
    engine=None,
) -> BestResponseResult:
    """Compute a greedy (not necessarily optimal) response for ``node``.

    Links are added one at a time, each minimising the node's cost given the
    links already chosen, until the budget is exhausted.  This is the
    practical fallback for games where exact enumeration is too expensive
    (``C(n-1, k)`` grows quickly); it coincides with the exact best response
    when ``k = 1``.
    """
    score = _make_scorer(game, profile, node, candidates, engine)
    current_strategy = profile.strategy(node)
    current_cost = score(current_strategy)

    available = _normalized_candidates(game, node, candidates)
    chosen: List[Node] = []
    budget = game.budget(node)
    spent = 0.0
    evaluated = 0
    # The cost of `chosen` carries over between rounds (it equals the winning
    # candidate's cost), and `spent` is accumulated incrementally; neither
    # depends on the candidate target, so neither is recomputed per target.
    best_cost = score(chosen)
    while True:
        best_addition: Optional[Node] = None
        for target in available:
            if target in chosen:
                continue
            price = game.link_cost(node, target)
            if spent + price > budget + 1e-9:
                continue
            evaluated += 1
            cost = score(chosen + [target])
            if cost < best_cost - CHAIN_EPS:
                best_cost = cost
                best_addition = target
        if best_addition is None:
            break
        chosen.append(best_addition)
        spent += game.link_cost(node, best_addition)

    greedy_strategy = frozenset(chosen)
    greedy_cost = best_cost
    if greedy_cost < current_cost - CHAIN_EPS:
        return BestResponseResult(
            node=node,
            current_strategy=current_strategy,
            current_cost=current_cost,
            best_strategy=greedy_strategy,
            best_cost=greedy_cost,
            evaluated=evaluated,
            improved=True,
        )
    return BestResponseResult(
        node=node,
        current_strategy=current_strategy,
        current_cost=current_cost,
        best_strategy=current_strategy,
        best_cost=current_cost,
        evaluated=evaluated,
        improved=False,
    )


def single_swap_response(
    game: BBCGame,
    profile: StrategyProfile,
    node: Node,
    *,
    candidates: Optional[Sequence[Node]] = None,
    engine=None,
) -> BestResponseResult:
    """Best response restricted to moving at most one existing link.

    Useful as a cheap stability *necessary condition* on large graphs: a
    profile that admits an improving single-link move is certainly not a Nash
    equilibrium (the converse does not hold).
    """
    score = _make_scorer(game, profile, node, candidates, engine)
    current_strategy = profile.strategy(node)
    current_cost = score(current_strategy)
    budget = game.budget(node)

    best_strategy = current_strategy
    best_cost = current_cost
    evaluated = 0
    available = _normalized_candidates(game, node, candidates)
    for removed in list(current_strategy) + [None]:
        base = set(current_strategy)
        if removed is not None:
            base.discard(removed)
        for target in available:
            if target in base:
                continue
            candidate = frozenset(base | {target})
            if game.strategy_cost(node, candidate) > budget + 1e-9:
                continue
            evaluated += 1
            cost = score(candidate)
            if cost < best_cost - CHAIN_EPS:
                best_cost = cost
                best_strategy = candidate
    improved = best_cost < current_cost - CHAIN_EPS
    return BestResponseResult(
        node=node,
        current_strategy=current_strategy,
        current_cost=current_cost,
        best_strategy=best_strategy,
        best_cost=best_cost,
        evaluated=evaluated,
        improved=improved,
    )


def count_feasible_strategies(game: BBCGame, node: Node) -> int:
    """Return how many budget-maximal strategies ``node`` has (diagnostics)."""
    candidates = [v for v in game.nodes if v != node]
    costs = {game.link_cost(node, v) for v in candidates}
    if len(costs) <= 1:
        per_link = next(iter(costs)) if costs else 0.0
        if per_link <= 0:
            return 1
        max_links = min(len(candidates), int(game.budget(node) // per_link))
        return math.comb(len(candidates), max_links)
    return sum(1 for _ in game.feasible_strategies(node, maximal_only=True))
