"""Equilibrium verification and exhaustive search."""

import pytest

from repro.core import (
    SearchSpaceTooLarge,
    StrategyProfile,
    UniformBBCGame,
    enumerate_profiles,
    equilibrium_report,
    exhaustive_equilibrium_search,
    first_unstable_node,
    is_pure_nash,
    random_profile,
    sampled_equilibrium_search,
    swap_stability_report,
)


def test_cycle_is_equilibrium_for_k1(cycle_profile):
    game = UniformBBCGame(5, 1)
    assert is_pure_nash(game, cycle_profile)
    report = equilibrium_report(game, cycle_profile)
    assert report.is_equilibrium
    assert report.max_regret == 0.0
    assert report.unstable_nodes == ()
    assert "STABLE" in report.describe()


def test_empty_profile_is_not_equilibrium():
    game = UniformBBCGame(5, 1)
    empty = game.empty_profile()
    assert not is_pure_nash(game, empty)
    unstable = first_unstable_node(game, empty)
    assert unstable is not None and unstable.improved


def test_broken_cycle_is_not_equilibrium():
    game = UniformBBCGame(5, 1)
    profile = StrategyProfile({0: {1}, 1: {2}, 2: {3}, 3: {4}, 4: {3}})
    assert not is_pure_nash(game, profile)
    report = equilibrium_report(game, profile)
    assert report.max_regret > 0
    assert len(report.unstable_nodes) >= 1


def test_swap_report_agrees_on_cycle(cycle_profile):
    game = UniformBBCGame(5, 1)
    assert swap_stability_report(game, cycle_profile).is_equilibrium


def test_enumerate_profiles_and_space_estimate():
    game = UniformBBCGame(4, 1)
    profiles = list(enumerate_profiles(game))
    assert len(profiles) == 3 ** 4
    with pytest.raises(SearchSpaceTooLarge):
        list(enumerate_profiles(game, limit=10))


def test_exhaustive_search_finds_cycle_equilibria():
    game = UniformBBCGame(4, 1)
    summary = exhaustive_equilibrium_search(game, stop_at_first=True)
    assert summary.has_equilibrium
    assert is_pure_nash(game, summary.first_equilibrium)


def test_candidate_restriction_in_search():
    game = UniformBBCGame(4, 1)
    # Restrict every node to link to its successor on the cycle: the only
    # profile in the restricted space is the 4-cycle, which is stable.
    candidates = {i: [(i + 1) % 4] for i in range(4)}
    summary = exhaustive_equilibrium_search(game, candidate_targets=candidates)
    assert summary.profiles_examined == 1
    assert summary.equilibria_found == 1


def test_sampled_search_and_random_profile_feasibility():
    game = UniformBBCGame(6, 2)
    profile = random_profile(game, seed=11)
    game.validate_profile(profile)
    summary = sampled_equilibrium_search(game, samples=5, seed=1)
    assert summary.profiles_examined == 5
