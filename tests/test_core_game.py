"""BBCGame and UniformBBCGame behaviour."""

import pytest

from repro.core import (
    BBCGame,
    InvalidGameDefinition,
    InvalidProfile,
    InvalidStrategy,
    Objective,
    SearchSpaceTooLarge,
    StrategyProfile,
    UniformBBCGame,
)


def test_uniform_game_basic_properties():
    game = UniformBBCGame(6, 2)
    assert game.n == 6 and game.k == 2
    assert game.is_uniform
    assert game.has_uniform_lengths
    assert game.weight(0, 1) == 1.0
    assert game.weight(0, 0) == 0.0
    assert game.budget(3) == 2.0
    assert game.disconnection_penalty > game.num_nodes


def test_uniform_game_argument_validation():
    with pytest.raises(InvalidGameDefinition):
        UniformBBCGame(1, 1)
    with pytest.raises(InvalidGameDefinition):
        UniformBBCGame(5, 0)
    with pytest.raises(InvalidGameDefinition):
        UniformBBCGame(5, 5)


def test_nonuniform_tables_and_validation():
    game = BBCGame(
        nodes=["a", "b", "c"],
        weights={("a", "b"): 2.0},
        link_costs={("a", "c"): 3.0},
        link_lengths={("b", "c"): 4.0},
        budgets={"a": 2.0},
        default_weight=0.0,
    )
    assert game.weight("a", "b") == 2.0
    assert game.weight("a", "c") == 0.0
    assert game.link_cost("a", "c") == 3.0
    assert game.link_length("b", "c") == 4.0
    assert not game.is_uniform
    assert not game.has_uniform_lengths
    weights, default_weight = game.pair_overrides("weights")
    assert dict(weights) == {("a", "b"): 2.0} and default_weight == 0.0
    assert dict(game.pair_overrides("link_lengths")[0]) == {("b", "c"): 4.0}
    with pytest.raises(TypeError):
        weights[("a", "c")] = 1.0
    with pytest.raises(InvalidGameDefinition):
        BBCGame(nodes=["a", "a"])
    with pytest.raises(InvalidGameDefinition):
        BBCGame(nodes=["a", "b"], weights={("a", "z"): 1.0})
    with pytest.raises(InvalidGameDefinition):
        BBCGame(nodes=["a", "b"], weights={("a", "b"): -1.0})


def test_strategy_validation_and_feasibility():
    game = UniformBBCGame(5, 2)
    assert game.is_feasible_strategy(0, {1, 2})
    assert not game.is_feasible_strategy(0, {1, 2, 3})
    assert not game.is_feasible_strategy(0, {0})
    with pytest.raises(InvalidStrategy):
        game.validate_strategy(0, {1, 2, 3})
    with pytest.raises(InvalidStrategy):
        game.validate_strategy(0, {"missing"})


def test_feasible_strategies_enumeration_uniform_costs():
    game = UniformBBCGame(5, 2)
    maximal = list(game.feasible_strategies(0))
    assert len(maximal) == 6  # C(4, 2)
    everything = list(game.feasible_strategies(0, maximal_only=False))
    assert len(everything) == 1 + 4 + 6


def test_feasible_strategies_respects_candidates_and_limit():
    game = UniformBBCGame(8, 2)
    restricted = list(game.feasible_strategies(0, candidates=[1, 2, 3]))
    assert len(restricted) == 3
    with pytest.raises(SearchSpaceTooLarge):
        list(game.feasible_strategies(0, limit=3))


def test_feasible_strategies_nonuniform_costs():
    game = BBCGame(
        nodes=[0, 1, 2, 3],
        link_costs={(0, 1): 1.0, (0, 2): 2.0, (0, 3): 2.0},
        budgets={0: 3.0},
    )
    maximal = {frozenset(s) for s in game.feasible_strategies(0)}
    assert frozenset({1, 2}) in maximal
    assert frozenset({1, 3}) in maximal
    # {1} alone is not maximal (budget 3 could still afford node 2 or 3).
    assert frozenset({1}) not in maximal


def test_node_cost_cycle_and_disconnection(cycle_profile):
    game = UniformBBCGame(5, 1)
    assert game.node_cost(cycle_profile, 0) == 10.0
    empty = game.empty_profile()
    assert game.node_cost(empty, 0) == 4 * game.disconnection_penalty
    assert game.social_cost(cycle_profile) == 50.0


def test_max_objective_cost(cycle_profile):
    game = UniformBBCGame(5, 1, objective=Objective.MAX)
    assert game.node_cost(cycle_profile, 0) == 4.0


def test_profile_validation_against_game():
    game = UniformBBCGame(4, 1)
    bad = StrategyProfile({0: {1, 2}, 1: {2}, 2: {3}, 3: {0}})
    with pytest.raises(InvalidProfile):
        game.validate_profile(bad)
    missing_nodes = StrategyProfile({0: {1}})
    with pytest.raises(InvalidProfile):
        game.validate_profile(missing_nodes)


def test_minimum_possible_costs():
    game = UniformBBCGame(7, 2)
    # Layered profile: 2 nodes at distance 1, 4 at distance 2 => 2 + 8 = 10.
    assert game.minimum_possible_node_cost() == 10.0
    assert game.minimum_possible_social_cost() == 70.0
    max_game = UniformBBCGame(7, 2, objective=Objective.MAX)
    assert max_game.minimum_possible_node_cost() == 2.0
