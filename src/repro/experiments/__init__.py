"""Experiment harness: seeded workloads, parallel sweeps, and the Section 4.3 studies."""

from .dynamics_study import (
    empty_start_convergence_study,
    engine_reuse_study,
    max_cost_first_convergence_study,
    scheduler_comparison_study,
)
from .parallel import (
    GameSpec,
    default_processes,
    last_run_stats,
    parallel_map,
    resolve_processes,
)
from .workloads import (
    empty_initial_profile,
    interest_cluster_game,
    latency_overlay_game,
    random_initial_profile,
    random_preference_game,
)

__all__ = [
    "random_preference_game",
    "interest_cluster_game",
    "latency_overlay_game",
    "random_initial_profile",
    "empty_initial_profile",
    "max_cost_first_convergence_study",
    "empty_start_convergence_study",
    "scheduler_comparison_study",
    "engine_reuse_study",
    "GameSpec",
    "default_processes",
    "last_run_stats",
    "parallel_map",
    "resolve_processes",
]
