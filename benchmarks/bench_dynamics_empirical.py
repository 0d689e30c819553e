"""Section 4.3: empirical behaviour of max-cost-first best-response walks."""

from conftest import save_table

from repro.analysis import format_table
from repro.experiments import (
    default_processes,
    empty_start_convergence_study,
    max_cost_first_convergence_study,
    scheduler_comparison_study,
)

# Walk starts are independent cells; fan them across processes (rows are
# identical at any count).
PROCESSES = default_processes()


def run_dynamics():
    random_starts = max_cost_first_convergence_study(
        8, 2, num_starts=6, max_rounds=50, seed=0, processes=PROCESSES
    )
    empty_starts = empty_start_convergence_study(
        [6, 8, 10], k=2, max_rounds=80, processes=PROCESSES
    )
    schedulers = scheduler_comparison_study(
        8, 2, num_starts=4, max_rounds=50, seed=1, processes=PROCESSES
    )
    return random_starts, empty_starts, schedulers


def test_section43_empirical_observations(benchmark):
    random_starts, empty_starts, schedulers = benchmark.pedantic(
        run_dynamics, rounds=1, iterations=1
    )
    table = format_table(random_starts, title="Section 4.3: max-cost-first walks, random starts")
    table += "\n\n" + format_table(empty_starts, title="Section 4.3: max-cost-first walks, empty start")
    table += "\n\n" + format_table(schedulers, title="Section 4.3: scheduler comparison")
    save_table("sec43_dynamics", table)
    # Every walk terminates with a definite verdict: it either converges to a
    # pure equilibrium or provably cycles.  (The paper observed convergence
    # from the empty start for its tie-breaking rule; with our deterministic
    # lexicographic tie-breaking some sizes cycle instead.)
    assert all(row["converged"] or row["cycled"] for row in empty_starts)
    assert any(row["converged"] for row in empty_starts)
    assert all(
        row["converged"] or row["cycled"] or row["rounds"] >= 50 for row in random_starts
    )
