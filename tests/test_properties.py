"""Property-based tests on the game engine's core invariants (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Objective,
    StrategyProfile,
    UniformBBCGame,
    best_response,
    random_profile,
)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 9), k=st.integers(1, 3))
def test_adding_a_link_never_increases_cost(seed, n, k):
    """Extra edges can only create shortcuts, never longer shortest paths."""
    k = min(k, n - 2)
    game = UniformBBCGame(n, k + 1)
    profile = random_profile(UniformBBCGame(n, k), seed=seed)
    profile = StrategyProfile({u: profile.strategy(u) for u in range(n)})
    node = seed % n
    base_cost = game.node_cost(profile, node)
    extra_target = next(
        v for v in range(n) if v != node and v not in profile.strategy(node)
    )
    richer = profile.with_strategy(node, set(profile.strategy(node)) | {extra_target})
    assert game.node_cost(richer, node) <= base_cost + 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 8), k=st.integers(1, 2))
def test_best_response_is_idempotent(seed, n, k):
    """Applying a best response leaves the node with zero regret."""
    k = min(k, n - 1)
    game = UniformBBCGame(n, k)
    profile = random_profile(game, seed=seed)
    node = seed % n
    first = best_response(game, profile, node)
    updated = first.apply(profile)
    second = best_response(game, updated, node)
    assert not second.improved
    assert second.current_cost == pytest.approx(first.best_cost)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 8))
def test_social_cost_is_sum_of_node_costs(seed, n):
    game = UniformBBCGame(n, 2)
    profile = random_profile(game, seed=seed)
    assert game.social_cost(profile) == pytest.approx(
        sum(game.node_cost(profile, u) for u in game.nodes)
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 8))
def test_max_cost_bounded_by_sum_cost(seed, n):
    """For unit weights the max objective never exceeds the sum objective."""
    sum_game = UniformBBCGame(n, 2, objective=Objective.SUM)
    max_game = UniformBBCGame(
        n, 2, objective=Objective.MAX, disconnection_penalty=sum_game.disconnection_penalty
    )
    profile = random_profile(sum_game, seed=seed)
    for node in sum_game.nodes:
        assert max_game.node_cost(profile, node) <= sum_game.node_cost(profile, node) + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    values=st.dictionaries(
        st.integers(0, 6), st.floats(0, 50, allow_nan=False), min_size=1, max_size=6
    )
)
def test_objective_aggregation_bounds(values):
    """MAX of weighted distances is at most their SUM (non-negative values)."""
    total = Objective.SUM.aggregate(values)
    worst = Objective.MAX.aggregate(values)
    assert worst <= total + 1e-9
    assert worst >= 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(5, 9))
def test_empty_profile_pays_penalty_per_target(seed, n):
    game = UniformBBCGame(n, 1)
    assert game.node_cost(game.empty_profile(), 0) == pytest.approx(
        (n - 1) * game.disconnection_penalty
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 8), k=st.integers(1, 2))
def test_random_profiles_are_budget_maximal(seed, n, k):
    k = min(k, n - 1)
    game = UniformBBCGame(n, k)
    profile = random_profile(game, seed=seed)
    game.validate_profile(profile)
    assert all(profile.out_degree(node) == k for node in game.nodes)
