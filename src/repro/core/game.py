"""BBC game definitions: the general non-uniform game and the uniform game.

A BBC game is the tuple ``<V, w, c, l, b>`` of Section 2 of the paper:

* ``V`` — the set of nodes (players);
* ``w(u, v)`` — how much ``u`` cares about reaching ``v``;
* ``c(u, v)`` — the price ``u`` pays to buy the directed link ``(u, v)``;
* ``l(u, v)`` — the length of that link if it is bought (by anyone);
* ``b(u)`` — the total budget ``u`` may spend on outgoing links.

Given a strategy profile ``S`` the formed network is ``G(S)`` and the cost of
``u`` is the preference-weighted sum (or maximum, for BBC-max games) of
shortest-path distances from ``u`` to every other node, where unreachable
nodes cost the disconnection penalty ``M``.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..graphs import DiGraph, bfs_distances, dijkstra_distances
from .errors import InvalidGameDefinition, InvalidProfile, InvalidStrategy, SearchSpaceTooLarge
from .objectives import Objective
from .profile import StrategyProfile, Strategy

Node = Hashable
PairFunction = Mapping[Tuple[Node, Node], float]

#: Default cap on how many candidate strategies a single feasibility
#: enumeration may yield before :class:`SearchSpaceTooLarge` is raised.
DEFAULT_ENUMERATION_LIMIT = 2_000_000


class BBCGame:
    """A (possibly non-uniform) Bounded Budget Connection game.

    Parameters
    ----------
    nodes:
        The player set.  Order is preserved and used for deterministic
        iteration in the engine.
    weights, link_costs, link_lengths:
        Sparse ``{(u, v): value}`` overrides; missing pairs fall back to the
        corresponding ``default_*`` value.
    budgets:
        Sparse ``{u: budget}`` overrides; missing nodes fall back to
        ``default_budget``.
    disconnection_penalty:
        The constant ``M`` charged per unit of preference weight for an
        unreachable target.  Defaults to ``10 * n * max_length``, comfortably
        larger than any realisable distance as the paper requires.
    objective:
        :class:`Objective.SUM` for the standard game, :class:`Objective.MAX`
        for BBC-max games.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        *,
        weights: Optional[PairFunction] = None,
        link_costs: Optional[PairFunction] = None,
        link_lengths: Optional[PairFunction] = None,
        budgets: Optional[Mapping[Node, float]] = None,
        default_weight: float = 1.0,
        default_link_cost: float = 1.0,
        default_link_length: float = 1.0,
        default_budget: float = 1.0,
        disconnection_penalty: Optional[float] = None,
        objective: Objective = Objective.SUM,
    ) -> None:
        self._nodes: Tuple[Node, ...] = tuple(nodes)
        if len(set(self._nodes)) != len(self._nodes):
            raise InvalidGameDefinition("duplicate node labels are not allowed")
        if not self._nodes:
            raise InvalidGameDefinition("a game needs at least one node")
        self._node_set = frozenset(self._nodes)
        self._weights = dict(weights or {})
        self._link_costs = dict(link_costs or {})
        self._link_lengths = dict(link_lengths or {})
        self._budgets = dict(budgets or {})
        self._default_weight = float(default_weight)
        self._default_link_cost = float(default_link_cost)
        self._default_link_length = float(default_link_length)
        self._default_budget = float(default_budget)
        self.objective = objective

        self._validate_tables()

        if disconnection_penalty is None:
            disconnection_penalty = 10.0 * len(self._nodes) * self.max_link_length()
        self.disconnection_penalty = float(disconnection_penalty)
        if self.disconnection_penalty <= 0:
            raise InvalidGameDefinition("the disconnection penalty must be positive")

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _validate_tables(self) -> None:
        for table_name, table in (
            ("weights", self._weights),
            ("link_costs", self._link_costs),
            ("link_lengths", self._link_lengths),
        ):
            for (tail, head), value in table.items():
                if tail not in self._node_set or head not in self._node_set:
                    raise InvalidGameDefinition(
                        f"{table_name}[{tail!r}, {head!r}] references an unknown node"
                    )
                if tail == head:
                    raise InvalidGameDefinition(
                        f"{table_name} must not contain self pairs ({tail!r})"
                    )
                if value < 0:
                    raise InvalidGameDefinition(
                        f"{table_name}[{tail!r}, {head!r}] is negative ({value!r})"
                    )
        for node, budget in self._budgets.items():
            if node not in self._node_set:
                raise InvalidGameDefinition(f"budget for unknown node {node!r}")
            if budget < 0:
                raise InvalidGameDefinition(f"budget of {node!r} is negative ({budget!r})")
        for name, value in (
            ("default_weight", self._default_weight),
            ("default_link_cost", self._default_link_cost),
            ("default_link_length", self._default_link_length),
            ("default_budget", self._default_budget),
        ):
            if value < 0:
                raise InvalidGameDefinition(f"{name} is negative ({value!r})")

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> Tuple[Node, ...]:
        """Return the players in declaration order."""
        return self._nodes

    @property
    def num_nodes(self) -> int:
        """Return ``n``, the number of players."""
        return len(self._nodes)

    def has_node(self, node: Node) -> bool:
        """Return ``True`` when ``node`` is a player of this game."""
        return node in self._node_set

    def weight(self, source: Node, target: Node) -> float:
        """Return ``w(source, target)``, the preference of ``source`` for ``target``."""
        if source == target:
            return 0.0
        return self._weights.get((source, target), self._default_weight)

    def link_cost(self, source: Node, target: Node) -> float:
        """Return ``c(source, target)``, the purchase cost of the link."""
        return self._link_costs.get((source, target), self._default_link_cost)

    def link_length(self, source: Node, target: Node) -> float:
        """Return ``l(source, target)``, the length of the link if present."""
        return self._link_lengths.get((source, target), self._default_link_length)

    def pair_overrides(self, table: str) -> Tuple[PairFunction, float]:
        """Return a read-only view of the sparse ``table`` and its default.

        ``table`` is ``"weights"`` or ``"link_lengths"``; every pair missing
        from the view takes the default.
        """
        overrides, default = {
            "weights": (self._weights, self._default_weight),
            "link_lengths": (self._link_lengths, self._default_link_length),
        }[table]
        return MappingProxyType(overrides), default

    def budget(self, node: Node) -> float:
        """Return ``b(node)``, the node's total link budget."""
        return self._budgets.get(node, self._default_budget)

    def max_link_length(self) -> float:
        """Return the largest link length appearing in the game."""
        lengths = [self._default_link_length] + list(self._link_lengths.values())
        return max(lengths)

    @property
    def is_uniform(self) -> bool:
        """Return ``True`` when all weights, costs, lengths, and budgets coincide.

        This matches the paper's definition of a uniform game (Section 2); the
        common values need not be 1 for this predicate, only identical.
        """
        weight_values = set(self._weights.values()) | {self._default_weight}
        cost_values = set(self._link_costs.values()) | {self._default_link_cost}
        length_values = set(self._link_lengths.values()) | {self._default_link_length}
        budget_values = set(self._budgets.values()) | {self._default_budget}
        return (
            len(weight_values) == 1
            and len(cost_values) == 1
            and len(length_values) == 1
            and len(budget_values) == 1
        )

    @property
    def has_uniform_lengths(self) -> bool:
        """Return ``True`` when every link has the same length.

        Uniform lengths allow the engine to replace Dijkstra with plain BFS.
        """
        lengths = set(self._link_lengths.values()) | {self._default_link_length}
        return len(lengths) == 1

    # ------------------------------------------------------------------ #
    # Strategies and profiles
    # ------------------------------------------------------------------ #
    def strategy_cost(self, node: Node, strategy: Iterable[Node]) -> float:
        """Return the total purchase cost of ``strategy`` for ``node``."""
        return sum(self.link_cost(node, target) for target in strategy)

    def is_feasible_strategy(self, node: Node, strategy: Iterable[Node]) -> bool:
        """Return ``True`` when ``strategy`` respects the game rules for ``node``."""
        strategy = frozenset(strategy)
        if node in strategy:
            return False
        if not strategy <= self._node_set:
            return False
        return self.strategy_cost(node, strategy) <= self.budget(node) + 1e-9

    def validate_strategy(self, node: Node, strategy: Iterable[Node]) -> Strategy:
        """Return ``strategy`` as a frozenset or raise :class:`InvalidStrategy`."""
        strategy = frozenset(strategy)
        if node in strategy:
            raise InvalidStrategy(f"node {node!r} cannot buy a link to itself")
        unknown = strategy - self._node_set
        if unknown:
            raise InvalidStrategy(
                f"strategy of {node!r} targets unknown node {next(iter(unknown))!r}"
            )
        spent = self.strategy_cost(node, strategy)
        if spent > self.budget(node) + 1e-9:
            raise InvalidStrategy(
                f"strategy of {node!r} costs {spent} which exceeds its budget "
                f"{self.budget(node)}"
            )
        return strategy

    def validate_profile(self, profile: StrategyProfile) -> None:
        """Raise :class:`InvalidProfile` when ``profile`` does not fit this game."""
        if set(profile.nodes()) != set(self._nodes):
            raise InvalidProfile("profile nodes do not match the game's node set")
        for node in self._nodes:
            try:
                self.validate_strategy(node, profile.strategy(node))
            except InvalidStrategy as exc:
                raise InvalidProfile(str(exc)) from exc

    def empty_profile(self) -> StrategyProfile:
        """Return the profile in which nobody buys any link."""
        return StrategyProfile.empty(self._nodes)

    def _normalize_candidates(
        self, node: Node, candidates: Optional[Sequence[Node]]
    ) -> List[Node]:
        """Return candidate targets in enumeration order (dedup, ``node`` removed)."""
        if candidates is None:
            candidates = [v for v in self._nodes if v != node]
        else:
            candidates = [v for v in candidates if v != node]
            unknown = set(candidates) - self._node_set
            if unknown:
                raise InvalidStrategy(
                    f"candidate target {next(iter(unknown))!r} is not a node of the game"
                )
        return list(dict.fromkeys(candidates))  # preserve order, drop duplicates

    def combination_plan(
        self,
        node: Node,
        candidates: Optional[Sequence[Node]] = None,
        *,
        maximal_only: bool = True,
        limit: float = DEFAULT_ENUMERATION_LIMIT,
    ) -> Optional[Tuple[List[Node], List[int]]]:
        """Describe :meth:`feasible_strategies` as plain combinations, if possible.

        When every candidate link has the same cost, the feasible strategies
        of ``node`` are exactly ``itertools.combinations(candidates, size)``
        for the returned sizes, in that order.  Returns ``(candidates,
        sizes)`` in that case and ``None`` otherwise (non-uniform link costs).
        :meth:`feasible_strategies` itself enumerates from this plan, and the
        engine's batched scorer uses it to score whole strategy sets without
        materialising them one by one — sharing the plan is what keeps the
        two enumeration orders identical by construction.

        Raises :class:`SearchSpaceTooLarge` exactly like
        :meth:`feasible_strategies` when the estimated count exceeds
        ``limit``.
        """
        candidates = self._normalize_candidates(node, candidates)
        costs = {v: self.link_cost(node, v) for v in candidates}
        return self._combination_plan_from(node, candidates, costs, maximal_only, limit)

    def _combination_plan_from(
        self,
        node: Node,
        candidates: List[Node],
        costs: Dict[Node, float],
        maximal_only: bool,
        limit: float,
    ) -> Optional[Tuple[List[Node], List[int]]]:
        if len(set(costs.values())) > 1:
            return None
        budget = self.budget(node)
        per_link = next(iter(costs.values())) if costs else 0.0
        if per_link <= 0:
            max_links = len(candidates)
        else:
            max_links = min(len(candidates), int(math.floor(budget / per_link + 1e-9)))
        sizes = [max_links] if maximal_only else list(range(max_links + 1))
        estimated = sum(math.comb(len(candidates), size) for size in sizes)
        if estimated > limit:
            raise SearchSpaceTooLarge(
                f"feasible strategies of node {node!r}", estimated, limit
            )
        return candidates, sizes

    def feasible_strategies(
        self,
        node: Node,
        candidates: Optional[Sequence[Node]] = None,
        *,
        maximal_only: bool = True,
        limit: float = DEFAULT_ENUMERATION_LIMIT,
    ) -> Iterator[Strategy]:
        """Yield feasible strategies for ``node``.

        Parameters
        ----------
        candidates:
            Restrict purchased links to these targets (defaults to all other
            nodes).
        maximal_only:
            When ``True`` (the default) only budget-maximal strategies are
            yielded.  Adding an affordable link can never increase a node's
            cost (extra edges only shorten distances), so some best response
            is always budget-maximal; enumerating only those is sound for
            best-response computations and much cheaper.
        limit:
            Guard against combinatorial explosion; an estimate above this
            raises :class:`SearchSpaceTooLarge`.
        """
        candidates = self._normalize_candidates(node, candidates)
        costs = {v: self.link_cost(node, v) for v in candidates}
        plan = self._combination_plan_from(node, candidates, costs, maximal_only, limit)
        if plan is not None:
            plan_candidates, sizes = plan
            for size in sizes:
                for combo in itertools.combinations(plan_candidates, size):
                    yield frozenset(combo)
            return

        # Non-uniform link costs: recursive subset enumeration with budget pruning.
        budget = self.budget(node)
        ordered: List[Node] = list(candidates)
        yielded = 0

        def is_maximal(chosen: Tuple[Node, ...], remaining_budget: float) -> bool:
            chosen_set = set(chosen)
            return all(
                other in chosen_set or costs[other] > remaining_budget + 1e-9
                for other in ordered
            )

        def enumerate_from(
            start: int, chosen: Tuple[Node, ...], remaining: float
        ) -> Iterator[Strategy]:
            nonlocal yielded
            if not maximal_only or is_maximal(chosen, remaining):
                yielded += 1
                if yielded > limit:
                    raise SearchSpaceTooLarge(
                        f"feasible strategies of node {node!r}", yielded, limit
                    )
                yield frozenset(chosen)
            for index in range(start, len(ordered)):
                target = ordered[index]
                price = costs[target]
                if price <= remaining + 1e-9:
                    yield from enumerate_from(index + 1, chosen + (target,), remaining - price)

        yield from enumerate_from(0, (), budget)

    # ------------------------------------------------------------------ #
    # Network formation and costs
    # ------------------------------------------------------------------ #
    def graph(self, profile: StrategyProfile) -> DiGraph:
        """Return the formed network ``G(S)`` with ``length`` edge attributes."""
        graph = DiGraph()
        graph.add_nodes_from(self._nodes)
        for buyer, target in profile.edges():
            graph.add_edge(buyer, target, length=self.link_length(buyer, target))
        return graph

    def distances_from(self, profile: StrategyProfile, node: Node) -> Dict[Node, float]:
        """Return shortest-path distances from ``node`` in ``G(S)``.

        Unreachable nodes are omitted; callers substitute the disconnection
        penalty.  BFS is used when all link lengths coincide, Dijkstra
        otherwise.
        """
        graph = self.graph(profile)
        if self.has_uniform_lengths:
            unit = self._default_link_length
            raw = bfs_distances(graph, node)
            if unit == 1:
                return {k: float(v) for k, v in raw.items()}
            return {k: float(v) * unit for k, v in raw.items()}
        return dijkstra_distances(graph, node)

    def node_cost(self, profile: StrategyProfile, node: Node) -> float:
        """Return the cost of ``node`` under ``profile``.

        This is the quantity each player minimises: the objective-aggregated,
        preference-weighted distance to every other node, with unreachable
        nodes charged the disconnection penalty ``M``.
        """
        distances = self.distances_from(profile, node)
        weighted: Dict[Node, float] = {}
        for target in self._nodes:
            if target == node:
                continue
            weight = self.weight(node, target)
            distance = distances.get(target, self.disconnection_penalty)
            weighted[target] = weight * distance
        return self.objective.aggregate(weighted)

    def all_costs(self, profile: StrategyProfile, *, engine=None) -> Dict[Node, float]:
        """Return the cost of every node under ``profile``.

        Routed through the shared flat-array :class:`~repro.engine.CostEngine`
        (one CSR snapshot, full-graph rows traversed by the selected list or
        numpy backend — batched into giant multi-source sweeps when a report
        planned them — and cached per profile version); ``engine=False``
        forces the reference per-node :meth:`node_cost` path.
        """
        from ..engine import resolve_engine

        engine = resolve_engine(self, engine)
        if engine is None:
            return {node: self.node_cost(profile, node) for node in self._nodes}
        return engine.all_costs(profile)

    def social_cost(self, profile: StrategyProfile, *, engine=None) -> float:
        """Return the total cost over all nodes (the paper's social cost)."""
        return sum(self.all_costs(profile, engine=engine).values())

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Return a short human-readable description of the game."""
        kind = "uniform" if self.is_uniform else "non-uniform"
        return (
            f"{kind} BBC game: n={self.num_nodes}, objective={self.objective.value}, "
            f"M={self.disconnection_penalty:g}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} n={self.num_nodes} objective={self.objective.value}>"


class UniformBBCGame(BBCGame):
    """The (n, k)-uniform BBC game of Section 4.

    All preference weights, link costs, and link lengths are 1; every node
    has a budget of ``k`` links.  Nodes are labelled ``0..n-1``.
    """

    def __init__(
        self,
        n: int,
        k: int,
        *,
        objective: Objective = Objective.SUM,
        disconnection_penalty: Optional[float] = None,
    ) -> None:
        if n < 2:
            raise InvalidGameDefinition("a uniform game needs at least two nodes")
        if k < 1:
            raise InvalidGameDefinition("the per-node budget k must be at least 1")
        if k >= n:
            raise InvalidGameDefinition("k must be smaller than n (no self links)")
        self.k = k
        super().__init__(
            nodes=range(n),
            default_weight=1.0,
            default_link_cost=1.0,
            default_link_length=1.0,
            default_budget=float(k),
            disconnection_penalty=disconnection_penalty,
            objective=objective,
        )

    @property
    def n(self) -> int:
        """Return the number of players (alias for :attr:`num_nodes`)."""
        return self.num_nodes

    def describe(self) -> str:
        """Return a short human-readable description of the game."""
        return (
            f"({self.n}, {self.k})-uniform BBC game, objective={self.objective.value}, "
            f"M={self.disconnection_penalty:g}"
        )

    def minimum_possible_node_cost(self) -> float:
        """Return a lower bound on any node's cost in any profile.

        With out-degree at most ``k`` a node can have at most ``k`` nodes at
        distance 1, ``k^2`` at distance 2, and so on; summing that optimal
        distance profile gives the bound used for the price-of-stability
        argument (Theorem 4).  For the max objective the bound is the minimal
        possible eccentricity ``ceil(log_k (n(k-1)+1)) - 1``-ish; we compute
        it from the same layered profile.
        """
        remaining = self.n - 1
        distance = 1
        total = 0.0
        layer = self.k
        max_distance = 0
        while remaining > 0:
            take = min(layer, remaining)
            total += take * distance
            remaining -= take
            max_distance = distance
            distance += 1
            layer *= self.k
        if self.objective is Objective.MAX:
            return float(max_distance)
        return total

    def minimum_possible_social_cost(self) -> float:
        """Return ``n`` times the per-node lower bound (a social-cost lower bound)."""
        return self.n * self.minimum_possible_node_cost()
