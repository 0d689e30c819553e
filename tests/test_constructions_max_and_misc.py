"""Figure 6 BBC-max equilibrium, ring+path instance, and baselines."""

import pytest

from repro.constructions import (
    analytic_optimum_per_node,
    analytic_optimum_total,
    build_max_distance_equilibrium,
    build_ring_with_path,
    kary_tree_with_back_links,
    log_k,
    max_distance_cost_row,
    random_k_out_baseline,
)
from repro.core import Objective, equilibrium_report
from repro.graphs import is_strongly_connected


def test_figure6_structure():
    instance = build_max_distance_equilibrium(3, 3)
    assert instance.num_nodes == 1 + 5 * 3
    game, profile = instance.game, instance.profile
    game.validate_profile(profile)
    assert game.objective is Objective.MAX
    assert profile.out_degree(instance.root) == 3
    assert is_strongly_connected(profile.graph())


def test_figure6_is_exact_max_equilibrium():
    instance = build_max_distance_equilibrium(3, 3)
    report = equilibrium_report(instance.game, instance.profile)
    assert report.is_equilibrium


def test_figure6_social_cost_scales_linearly_with_tail():
    short = build_max_distance_equilibrium(3, 3)
    long = build_max_distance_equilibrium(3, 6)
    assert long.social_cost() / long.num_nodes > short.social_cost() / short.num_nodes


def test_figure6_cost_row_fields():
    row = max_distance_cost_row(3, 4)
    assert row["poa_estimate"] > 1.0
    assert row["n"] == 1 + 5 * 4
    assert row["social_cost"] >= row["optimum_lower_bound"]


def test_figure6_parameter_validation():
    with pytest.raises(Exception):
        build_max_distance_equilibrium(2, 4)
    with pytest.raises(Exception):
        build_max_distance_equilibrium(3, 1)


def test_ring_with_path_instance():
    instance = build_ring_with_path(8, 4)
    assert instance.num_nodes == 12
    instance.game.validate_profile(instance.profile)
    assert not is_strongly_connected(instance.profile.graph())
    assert instance.round_order[0] == 8
    assert len(instance.round_order) == 12
    with pytest.raises(Exception):
        build_ring_with_path(3, 5)


def test_baseline_profiles_are_feasible_and_cheap():
    baseline = kary_tree_with_back_links(20, 2)
    baseline.game.validate_profile(baseline.profile)
    assert is_strongly_connected(baseline.profile.graph())
    random_baseline = random_k_out_baseline(20, 2, seed=1)
    random_baseline.game.validate_profile(random_baseline.profile)
    # The organised baseline should not be worse than the random one.
    assert baseline.per_node_cost() <= random_baseline.per_node_cost() * 1.5


def test_analytic_optimum_helpers():
    assert analytic_optimum_per_node(7, 2) == 10.0
    assert analytic_optimum_total(7, 2) == 70.0
    assert log_k(16, 2) == pytest.approx(4.0)
    with pytest.raises(Exception):
        log_k(16, 1)
