"""Analysis studies, table rendering, and experiment workloads."""


from repro.analysis import (
    connectivity_convergence_study,
    diameter_study,
    fairness_study,
    format_table,
    format_value,
    hypercube_study,
    max_poa_study,
    max_pos_study,
    merge_rows,
    poa_spectrum_study,
    regularity_study,
    ring_path_lower_bound_study,
)
from repro.experiments import (
    empty_initial_profile,
    empty_start_convergence_study,
    interest_cluster_game,
    latency_overlay_game,
    max_cost_first_convergence_study,
    random_initial_profile,
    random_preference_game,
    scheduler_comparison_study,
)


def test_format_table_and_values():
    rows = [{"a": 1, "b": 2.5, "c": True}, {"a": 10, "b": 0.123456, "c": False}]
    text = format_table(rows, title="demo")
    assert "demo" in text and "a" in text and "yes" in text
    assert format_value(2.0) == "2"
    assert format_value(2.25, precision=2) == "2.25"
    assert format_table([]) == "(empty table)"
    merged = merge_rows(rows, {"extra": 1})
    assert all(row["extra"] == 1 for row in merged)


def test_fairness_study_respects_lemma1_bounds():
    rows = fairness_study([(2, 2, 0), (2, 2, 1)])
    assert all(row["stable"] for row in rows)
    assert all(row["within_additive_bound"] for row in rows)
    assert all(row["cost_ratio"] <= row["ratio_bound"] + 1.0 for row in rows)


def test_poa_spectrum_increases_with_tails():
    rows = poa_spectrum_study(2, 2, [0, 2])
    assert rows[0]["cost_over_optimum"] < rows[1]["cost_over_optimum"]


def test_diameter_study_within_lemma7_scale():
    rows = diameter_study([(2, 2, 0), (2, 2, 2)])
    assert all(row["diameter"] is not None for row in rows)
    assert all(row["diameter"] <= 4 * row["sqrt_n_log_k_n"] for row in rows)


def test_regularity_and_hypercube_studies():
    rows = regularity_study([16, 24], k=2)
    assert all(not row["stable"] for row in rows)
    assert all(row["thm5_deviation_improves"] for row in rows)
    cube_rows = hypercube_study([2, 5])
    by_dim = {row["dimension"]: row for row in cube_rows}
    assert by_dim[2]["stable"] is True
    assert by_dim[5]["stable"] is False


def test_connectivity_studies():
    rows = connectivity_convergence_study([8, 10], k=2, seeds=(0,))
    assert all(row["within_bound"] for row in rows)
    lb_rows = ring_path_lower_bound_study([(8, 4)])
    assert lb_rows[0]["probes_to_connectivity"] <= lb_rows[0]["n_squared"]


def test_max_objective_studies():
    poa_rows = max_poa_study([(3, 3)])
    assert poa_rows[0]["poa_estimate"] > 1.0
    pos_rows = max_pos_study([(2, 2)])
    assert pos_rows[0]["pos_estimate"] >= 1.0
    assert pos_rows[0]["pos_estimate"] < 4.0


def test_workload_generators_produce_valid_games():
    sparse = random_preference_game(8, budget=2, seed=1)
    assert sparse.num_nodes == 8 and not sparse.is_uniform
    clustered = interest_cluster_game(2, 3)
    assert clustered.num_nodes == 6
    overlay = latency_overlay_game(6, seed=2)
    assert not overlay.has_uniform_lengths
    profile = random_initial_profile(sparse, seed=3)
    sparse.validate_profile(profile)
    assert empty_initial_profile(sparse).number_of_edges() == 0


def test_dynamics_studies_produce_rows():
    rows = max_cost_first_convergence_study(7, 2, num_starts=2, max_rounds=25, seed=0)
    assert len(rows) == 2
    assert all("converged" in row and "cycled" in row for row in rows)
    empty_rows = empty_start_convergence_study([7], k=2, max_rounds=40)
    assert len(empty_rows) == 1
    comparison = scheduler_comparison_study(7, 2, num_starts=2, max_rounds=25)
    assert {row["scheduler"] for row in comparison} == {
        "round_robin",
        "random",
        "max_cost_first",
    }
