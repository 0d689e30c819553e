"""Theorem 1 gadget, Theorem 2 reduction, and the Figure 5 max gadget."""

import pytest

from repro.core import is_pure_nash
from repro.gadgets import (
    CENTRALS,
    bottom_switch_distances,
    build_matching_pennies_gadget,
    build_max_gadget,
    build_sat_reduction,
    canonical_profile,
    forced_profile,
    no_equilibrium_search,
    satisfiable_direction_report,
    verify_case_analysis,
)
from repro.gadgets.max_gadget import equilibrium_search as max_equilibrium_search
from repro.sat import CNFFormula, solve, tiny_unsatisfiable_formula


@pytest.fixture(scope="module")
def gadget():
    return build_matching_pennies_gadget()


def test_gadget_shape_and_switch_inequalities(gadget):
    assert gadget.game.num_nodes == 11
    assert gadget.switch_weights.satisfies_inequalities(gadget.game.disconnection_penalty)
    assert gadget.game.budget("X") == 0.0
    assert not gadget.game.is_uniform


def test_case_analysis_cycles_through_all_configurations(gadget):
    steps = verify_case_analysis(gadget)
    assert len(steps) == 4
    assert all(step.tops_stable for step in steps)
    assert all(step.bottoms_stable for step in steps)
    assert all(step.deviating_central in CENTRALS for step in steps)
    assert all(step.central_improvement > 0 for step in steps)
    # The deviating central alternates with the configuration: matching pennies.
    deviators = {(step.zero_top, step.one_top): step.deviating_central for step in steps}
    assert deviators[("0LT", "1LT")] != deviators[("0LT", "1RT")]


def test_forced_profiles_are_never_equilibria(gadget):
    for zero_top in ("0LT", "0RT"):
        for one_top in ("1LT", "1RT"):
            profile = forced_profile(gadget, zero_top, one_top)
            assert not is_pure_nash(gadget.game, profile)


@pytest.mark.slow
def test_theorem1_no_pure_equilibrium_exhaustive(gadget):
    summary = no_equilibrium_search(gadget, stop_at_first=True)
    assert summary.exhausted
    assert summary.equilibria_found == 0


def test_unrestricted_variant_admits_the_documented_equilibrium():
    faithful = build_matching_pennies_gadget(restrict_bottom_links=False)
    summary = no_equilibrium_search(faithful, stop_at_first=True)
    assert summary.equilibria_found >= 1
    assert is_pure_nash(faithful.game, summary.first_equilibrium)


def test_padding_preserves_no_equilibrium_property():
    padded = build_matching_pennies_gadget(num_padding=3)
    assert padded.game.num_nodes == 14
    summary = no_equilibrium_search(padded, stop_at_first=True)
    assert summary.equilibria_found == 0


def test_sat_reduction_size_is_polynomial():
    formula = CNFFormula.from_clauses([(1, 2, 3), (-1, -2, 3)])
    instance = build_sat_reduction(formula)
    expected = 3 * formula.num_variables + 4 * formula.num_clauses + 2 + 10
    assert instance.num_nodes == expected
    instance.game.validate_profile(canonical_profile(instance, {1: True, 2: True, 3: True}))


def test_sat_reduction_canonical_profile_variable_layer_is_stable():
    formula = CNFFormula.from_clauses([(1, 2, 3), (-1, 2, 3)])
    instance = build_sat_reduction(formula)
    assignment = solve(formula)
    report = satisfiable_direction_report(instance, assignment)
    # The variable / intermediate / hub layers verify exactly; the clause and
    # gadget layers are where the figure's unpublished details matter (the
    # FIG2 benchmark reports every layer), so we assert the layers we can
    # certify.
    assert report.variable_nodes_stable
    assert report.hub_stable


def test_sat_reduction_budgets_follow_the_paper():
    formula = tiny_unsatisfiable_formula()
    instance = build_sat_reduction(formula)
    game = instance.game
    assert game.budget(instance.hub) == formula.num_clauses
    assert game.budget(instance.sink) == 0.0
    assert game.budget("X1T") == 0.0
    assert game.budget("X1") == 1.0


def test_max_gadget_structure_and_switch():
    gadget = build_max_gadget()
    assert gadget.game.num_nodes == 16
    distances = bottom_switch_distances(gadget)
    assert distances["via_central"] == pytest.approx(3.0)
    assert distances["via_sink"] == pytest.approx(4.0)


def test_max_gadget_search_reports_outcome():
    gadget = build_max_gadget()
    summary = max_equilibrium_search(gadget, stop_at_first=True)
    # The reconstruction is measured, not certified: the search must complete
    # and report a definite answer either way.
    assert summary.profiles_examined >= 1
