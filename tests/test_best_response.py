"""Exact best responses: oracle consistency and brute-force agreement."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BBCGame,
    Objective,
    StrategyProfile,
    UniformBBCGame,
    best_response,
    greedy_response,
    random_profile,
    single_swap_response,
)
from repro.core.best_response import DeviationOracle
from repro.engine import CostEngine


def brute_force_best_cost(game, profile, node):
    """Reference implementation: rebuild the graph for every strategy."""
    best = None
    for strategy in game.feasible_strategies(node):
        candidate = profile.with_strategy(node, strategy)
        cost = game.node_cost(candidate, node)
        if best is None or cost < best:
            best = cost
    return best


def test_oracle_matches_direct_cost_evaluation():
    game = UniformBBCGame(8, 2)
    profile = random_profile(game, seed=1)
    for node in game.nodes:
        oracle = DeviationOracle(game, profile, node)
        assert oracle.cost_of(profile.strategy(node)) == pytest.approx(
            game.node_cost(profile, node)
        )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5_000), n=st.integers(5, 9), k=st.integers(1, 3))
def test_best_response_matches_brute_force_uniform(seed, n, k):
    if k >= n:
        k = n - 1
    game = UniformBBCGame(n, k)
    profile = random_profile(game, seed=seed)
    node = seed % n
    result = best_response(game, profile, node)
    assert result.best_cost == pytest.approx(brute_force_best_cost(game, profile, node))
    assert result.best_cost <= result.current_cost + 1e-9


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_best_response_matches_brute_force_weighted(seed):
    rng = random.Random(seed)
    n = 6
    weights = {}
    lengths = {}
    for u in range(n):
        for v in range(n):
            if u != v:
                if rng.random() < 0.6:
                    weights[(u, v)] = float(rng.randint(1, 3))
                lengths[(u, v)] = float(rng.randint(1, 4))
    game = BBCGame(
        nodes=range(n),
        weights=weights,
        link_lengths=lengths,
        default_weight=0.0,
        default_budget=2.0,
    )
    profile = random_profile(game, seed=seed)
    node = seed % n
    result = best_response(game, profile, node)
    assert result.best_cost == pytest.approx(brute_force_best_cost(game, profile, node))


def test_best_response_on_max_objective():
    game = UniformBBCGame(6, 2, objective=Objective.MAX)
    profile = random_profile(game, seed=3)
    result = best_response(game, profile, 0)
    assert result.best_cost == pytest.approx(brute_force_best_cost(game, profile, 0))


def test_best_response_prefers_current_on_ties(cycle_profile):
    game = UniformBBCGame(5, 1)
    result = best_response(game, cycle_profile, 0)
    assert not result.improved
    assert result.best_strategy == cycle_profile.strategy(0)
    assert result.regret == 0.0


def test_best_response_candidates_restriction():
    game = UniformBBCGame(6, 1)
    profile = StrategyProfile({i: {(i + 1) % 6} for i in range(6)})
    restricted = best_response(game, profile, 0, candidates=[1])
    assert restricted.best_strategy == frozenset({1})


def test_best_response_result_apply():
    game = UniformBBCGame(6, 2)
    profile = game.empty_profile()
    result = best_response(game, profile, 0)
    assert result.improved
    updated = result.apply(profile)
    assert updated.strategy(0) == result.best_strategy


def test_greedy_matches_exact_for_k1():
    game = UniformBBCGame(7, 1)
    profile = random_profile(game, seed=9)
    for node in game.nodes:
        exact = best_response(game, profile, node)
        greedy = greedy_response(game, profile, node)
        assert greedy.best_cost == pytest.approx(exact.best_cost)


def test_greedy_never_worse_than_current():
    game = UniformBBCGame(10, 3)
    profile = random_profile(game, seed=2)
    for node in (0, 3, 7):
        result = greedy_response(game, profile, node)
        assert result.best_cost <= result.current_cost + 1e-9


def test_single_swap_is_a_lower_bound_on_improvement():
    game = UniformBBCGame(8, 2)
    profile = random_profile(game, seed=4)
    for node in game.nodes:
        swap = single_swap_response(game, profile, node)
        exact = best_response(game, profile, node)
        assert swap.best_cost + 1e-9 >= exact.best_cost
        assert swap.best_cost <= swap.current_cost + 1e-9


def scoring_game(n, weighted, seed):
    """An (n, 2)-uniform game, or one with integer lengths 1-4 and budget 2."""
    if not weighted:
        return UniformBBCGame(n, 2)
    rng = random.Random(seed)
    lengths = {
        (u, v): float(rng.randint(1, 4)) for u in range(n) for v in range(n) if u != v
    }
    return BBCGame(nodes=range(n), link_lengths=lengths, default_budget=2.0)


def sparse_profile(game, seed, node):
    """A random profile in which some other node is unreachable.

    About 30% of the nodes buy nothing, and nobody links to the
    returned ``hidden`` node, so every strategy of ``node`` that skips
    ``hidden`` has the disconnection penalty substituted for it.  Returns
    ``(profile, hidden)``.
    """
    rng = random.Random(seed)
    n = len(game.nodes)
    hidden = (node + 1 + seed % (n - 1)) % n
    strategies = {
        v: frozenset() if rng.random() < 0.3 else strategy - {hidden}
        for v, strategy in random_profile(game, seed=seed).items()
    }
    return StrategyProfile(strategies), hidden


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(17, 40),
    weighted=st.booleans(),
    count=st.sampled_from([0, 1, 2, 3, None]),
    backend=st.sampled_from(["python", "numpy"]),
)
def test_pair_kernel_matches_per_strategy_scoring(seed, n, weighted, count, backend):
    """The block pair kernel equals scoring each combination on its own, bit for bit."""
    pytest.importorskip("numpy")
    game = scoring_game(n, weighted, seed)
    node = seed % n
    profile, hidden = sparse_profile(game, seed, node)
    engine = CostEngine(game, backend=backend)
    engine.sync(profile)
    scorer = engine.scorer(node)
    assert scorer.fast_batch
    rng = random.Random(seed)
    others = [v for v in range(n) if v != node]
    candidates = rng.sample(others, n - 1 if count is None else count)
    pairs = list(itertools.combinations(candidates, 2))
    pair_costs = scorer.score_combinations(candidates, 2).tolist()
    single_costs = scorer.score_combinations(candidates, 1).tolist()
    for a in candidates:
        if a != hidden:
            assert game.disconnection_penalty in scorer._sub[a].tolist()
    one_by_one = engine.scorer(node)
    assert pair_costs == [one_by_one.score_ints(pair) for pair in pairs]
    assert single_costs == [one_by_one.score_ints([a]) for a in candidates]
    if pairs:
        i = rng.randrange(len(pairs))
        deviated = profile.with_strategy(node, pairs[i])
        assert pair_costs[i] == game.node_cost(deviated, node)
