"""Seeded workload generators for experiments, examples, and tests.

The paper's model is motivated by social networks, P2P file-sharing, and
overlay networks; these generators produce non-uniform BBC games shaped like
those motivating scenarios so the examples and the empirical benchmarks have
realistic (but fully reproducible) inputs.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..core import BBCGame, Objective, StrategyProfile
from ..rng import SeedLike, as_rng as _rng


def random_preference_game(
    n: int,
    *,
    budget: int = 1,
    weight_choices: Sequence[float] = (1.0, 1.0, 2.0, 3.0),
    preference_density: float = 0.5,
    objective: Objective = Objective.SUM,
    seed: SeedLike = None,
) -> BBCGame:
    """A game where each node cares about a random subset of the others.

    Models the "friend finder" scenario of the introduction: sparse,
    asymmetric interest with varying intensity, uniform link costs/lengths.
    """
    rng = _rng(seed)
    weights: Dict[Tuple[int, int], float] = {}
    for source in range(n):
        for target in range(n):
            if source != target and rng.random() < preference_density:
                weights[(source, target)] = float(rng.choice(list(weight_choices)))
    return BBCGame(
        nodes=range(n),
        weights=weights,
        default_weight=0.0,
        default_budget=float(budget),
        objective=objective,
    )


def interest_cluster_game(
    num_clusters: int,
    cluster_size: int,
    *,
    budget: int = 2,
    in_cluster_weight: float = 3.0,
    cross_cluster_weight: float = 1.0,
    objective: Objective = Objective.SUM,
) -> BBCGame:
    """A game with community structure (the "social network" workload).

    Nodes care strongly about their own cluster and weakly about everyone
    else, which is the regime in which selfish link formation produces
    hub-and-spoke communities.
    """
    n = num_clusters * cluster_size
    weights: Dict[Tuple[int, int], float] = {}
    for source in range(n):
        for target in range(n):
            if source == target:
                continue
            same_cluster = source // cluster_size == target // cluster_size
            weights[(source, target)] = in_cluster_weight if same_cluster else cross_cluster_weight
    return BBCGame(
        nodes=range(n),
        weights=weights,
        default_weight=0.0,
        default_budget=float(budget),
        objective=objective,
    )


def latency_overlay_game(
    n: int,
    *,
    budget: int = 2,
    latency_classes: Sequence[float] = (1.0, 2.0, 5.0),
    seed: SeedLike = None,
    objective: Objective = Objective.SUM,
) -> BBCGame:
    """A game with non-uniform link lengths (the "overlay network" workload).

    Link lengths model pairwise latencies drawn from a few classes (same
    rack / same region / cross-continent); preferences are uniform, budgets
    small, which is the selfish-neighbour-selection setting of the overlay
    motivation.
    """
    rng = _rng(seed)
    lengths: Dict[Tuple[int, int], float] = {}
    for source in range(n):
        for target in range(n):
            if source != target:
                lengths[(source, target)] = float(rng.choice(list(latency_classes)))
    return BBCGame(
        nodes=range(n),
        link_lengths=lengths,
        default_weight=1.0,
        default_budget=float(budget),
        objective=objective,
    )


def random_initial_profile(game: BBCGame, seed: SeedLike = None) -> StrategyProfile:
    """A uniformly random budget-maximal starting profile for dynamics runs."""
    rng = _rng(seed)
    strategies = {}
    for node in game.nodes:
        others = [v for v in game.nodes if v != node]
        rng.shuffle(others)
        remaining = game.budget(node)
        chosen = []
        for target in others:
            price = game.link_cost(node, target)
            if price <= remaining + 1e-9:
                chosen.append(target)
                remaining -= price
        strategies[node] = frozenset(chosen)
    return StrategyProfile(strategies)


def empty_initial_profile(game: BBCGame) -> StrategyProfile:
    """The empty starting profile (the paper's conjectured-convergent start)."""
    return game.empty_profile()
