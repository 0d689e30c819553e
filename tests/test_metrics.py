"""Social-cost metrics: fairness, PoA / PoS helpers, theorem bounds."""

import math

import pytest

from repro.core import (
    FairnessReport,
    UniformBBCGame,
    fairness_report,
    lemma1_additive_bound,
    lemma1_multiplicative_bound,
    price_of_anarchy,
    price_of_stability,
    social_cost,
    theorem4_poa_lower_bound,
    theorem4_poa_upper_bound,
    theorem8_max_poa_lower_bound,
    uniform_social_optimum_lower_bound,
    willow_total_cost_lower_bound,
    willow_total_cost_upper_bound,
)


def test_fairness_report_from_costs():
    report = FairnessReport.from_costs({0: 10.0, 1: 20.0, 2: 15.0})
    assert report.min_cost == 10.0
    assert report.max_cost == 20.0
    assert report.ratio == pytest.approx(2.0)
    assert report.additive_gap == pytest.approx(10.0)


def test_fairness_of_cycle_profile(cycle_profile):
    game = UniformBBCGame(5, 1)
    report = fairness_report(game, cycle_profile)
    assert report.ratio == pytest.approx(1.0)
    assert report.additive_gap == 0.0


def test_social_cost_and_optimum_bound(cycle_profile):
    game = UniformBBCGame(5, 1)
    assert social_cost(game, cycle_profile) == 50.0
    assert uniform_social_optimum_lower_bound(game) == 50.0


def test_poa_pos_with_explicit_equilibria(cycle_profile):
    game = UniformBBCGame(5, 1)
    assert price_of_anarchy(game, [cycle_profile]) == pytest.approx(1.0)
    assert price_of_stability(game, [cycle_profile]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        price_of_anarchy(game, [])


def test_lemma1_bounds_scale():
    game = UniformBBCGame(64, 2)
    assert lemma1_additive_bound(game) == 64 + 64 * 6
    assert lemma1_multiplicative_bound(game) == pytest.approx(2.5)


def test_theorem_bound_expressions():
    assert theorem4_poa_lower_bound(100, 2) == pytest.approx(
        math.sqrt(50) / math.log2(100)
    )
    assert theorem4_poa_upper_bound(100, 2) > theorem4_poa_lower_bound(100, 2)
    assert theorem8_max_poa_lower_bound(100, 2) == pytest.approx(
        100 / (2 * math.log2(100))
    )
    assert willow_total_cost_lower_bound(100, 4) < willow_total_cost_upper_bound(100, 4) * 100
    with pytest.raises(ValueError):
        theorem4_poa_lower_bound(10, 1)
