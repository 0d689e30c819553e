"""Section 4.3's experimental observations, reproduced as measurable studies.

The paper reports three empirical observations about best-response walks in
uniform games:

1. walks in which the *maximum-cost* node moves next do **not** always
   converge to a stable graph;
2. the same max-cost-first walk started from the **empty** graph does appear
   to converge;
3. some walks from non-empty starts appear to take exponentially long.

Each observation gets a study function returning row dictionaries;
:func:`repro.analysis.claims.sec43_dynamics` collects them into the table
that ``tests/test_paper_claims.py`` asserts on and ``scripts/claim_tables.py``
renders into ``benchmarks/output/sec43_dynamics.txt``.

The multi-start / multi-size studies accept a ``processes`` argument and fan
their independent cells out through :func:`repro.experiments.parallel_map`:
starting profiles are drawn up front from the study's seed stream (so the
cells no longer share mutable state) and each worker rebuilds its game from a
:class:`~repro.experiments.parallel.GameSpec`.  Rows are identical at any
process count.  The parallel studies pass ``journal`` through to
``parallel_map``, so a killed grid resumes from its completed cells.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core import UniformBBCGame, equilibrium_report
from ..dynamics import run_best_response_walk
from ..engine import get_engine
from ..rng import SeedLike, as_rng
from .parallel import GameSpec, parallel_map
from .workloads import empty_initial_profile, random_initial_profile

Row = Dict[str, object]


def _run_walk(game, profile, scheduler, max_rounds) -> Row:
    result = run_best_response_walk(
        game,
        profile,
        scheduler=scheduler,
        max_rounds=max_rounds,
        detect_cycles=True,
    )
    return {
        "converged": result.reached_equilibrium,
        "cycled": result.cycle_detected,
        "rounds": result.rounds,
        "deviations": result.deviations,
        "final_social_cost": game.social_cost(result.final_profile),
    }


def _walk_cell(args) -> Row:
    """One best-response walk in a (possibly worker) process."""
    spec, profile, scheduler, max_rounds = args
    return _run_walk(spec.build(), profile, scheduler, max_rounds)


def max_cost_first_convergence_study(
    n: int,
    k: int,
    *,
    num_starts: int = 10,
    max_rounds: int = 80,
    seed: SeedLike = 0,
    processes: int = 1,
    journal=None,
) -> List[Row]:
    """Observation 1: max-cost-first walks from random starts may cycle."""
    rng = as_rng(seed)
    game = UniformBBCGame(n, k)
    spec = GameSpec.from_game(game)
    starts = [random_initial_profile(game, seed=rng) for _ in range(num_starts)]
    outcomes = parallel_map(
        _walk_cell,
        [(spec, profile, "max_cost_first", max_rounds) for profile in starts],
        processes=processes,
        journal=journal,
    )
    return [
        {"start": start_index, "n": n, "k": k, **outcome}
        for start_index, outcome in enumerate(outcomes)
    ]


def _empty_start_cell(args) -> Row:
    spec, max_rounds = args
    game = spec.build()
    outcome = _run_walk(game, empty_initial_profile(game), "max_cost_first", max_rounds)
    outcome["optimum_lower_bound"] = game.minimum_possible_social_cost()
    return outcome


def empty_start_convergence_study(
    sizes: Sequence[int],
    k: int,
    *,
    max_rounds: int = 120,
    processes: int = 1,
    journal=None,
) -> List[Row]:
    """Observation 2: the empty-graph start appears to converge to stability."""
    specs = [GameSpec.from_game(UniformBBCGame(n, k)) for n in sizes]
    outcomes = parallel_map(
        _empty_start_cell,
        [(spec, max_rounds) for spec in specs],
        processes=processes,
        journal=journal,
    )
    return [
        {"n": n, "k": k, **outcome} for n, outcome in zip(sizes, outcomes)
    ]


def engine_reuse_study(
    n: int,
    k: int,
    *,
    max_rounds: int = 40,
    seed: SeedLike = 0,
) -> List[Row]:
    """Measure how much SSSP work the engine's version-stamped cache avoids.

    Runs a best-response walk followed by a full equilibrium check on the
    final profile — the canonical back-to-back workload — and reports the
    engine's cache counters: environment-distance rows computed vs served
    from cache, and how syncs classified their diffs (no-op / single-node /
    full reset).  The equilibrium check of a converged walk reuses the rows
    of the walk's final stable round outright, which is the locality the
    engine was built to exploit.
    """
    game = UniformBBCGame(n, k)
    engine = get_engine(game)
    profile = random_initial_profile(game, seed=seed)
    walk = run_best_response_walk(game, profile, max_rounds=max_rounds)
    walk_stats = dict(engine.stats)
    report = equilibrium_report(game, walk.final_profile)
    total_stats = engine.stats
    total_rows = total_stats["rows_computed"] + total_stats["rows_reused"]
    return [
        {
            "n": n,
            "k": k,
            "walk_converged": walk.reached_equilibrium,
            "walk_probes": walk.probes,
            "is_equilibrium": report.is_equilibrium,
            "rows_computed": total_stats["rows_computed"],
            "rows_reused": total_stats["rows_reused"],
            "reuse_fraction": (
                total_stats["rows_reused"] / total_rows if total_rows else 0.0
            ),
            "rows_computed_during_check": total_stats["rows_computed"]
            - walk_stats["rows_computed"],
            "noop_syncs": total_stats["noop_syncs"],
            "local_syncs": total_stats["local_syncs"],
            "full_syncs": total_stats["full_syncs"],
        }
    ]


def _scheduler_cell(args) -> Row:
    """All starts of one scheduler: the cell owns its whole seed stream."""
    spec, scheduler, num_starts, max_rounds, seed_value = args
    game = spec.build()
    rng = as_rng(seed_value)
    converged = 0
    cycled = 0
    total_deviations = 0
    for _ in range(num_starts):
        profile = random_initial_profile(game, seed=rng)
        result = run_best_response_walk(
            game,
            profile,
            scheduler=scheduler,
            max_rounds=max_rounds,
            detect_cycles=True,
            seed=rng,
        )
        converged += int(result.reached_equilibrium)
        cycled += int(result.cycle_detected)
        total_deviations += result.deviations
    return {
        "scheduler": scheduler,
        "n": game.num_nodes,
        "k": getattr(game, "k", None),
        "starts": num_starts,
        "converged": converged,
        "cycled": cycled,
        "mean_deviations": total_deviations / num_starts,
    }


def scheduler_comparison_study(
    n: int,
    k: int,
    *,
    num_starts: int = 5,
    max_rounds: int = 80,
    seed: SeedLike = 0,
    processes: int = 1,
    journal=None,
) -> List[Row]:
    """Compare round-robin, random, and max-cost-first schedules head to head.

    Each scheduler restarts the same seed stream, so the three cells are
    independent and parallelise without changing any row.
    """
    import random

    seed_value = 0 if isinstance(seed, random.Random) else seed
    spec = GameSpec.from_game(UniformBBCGame(n, k))
    return parallel_map(
        _scheduler_cell,
        [
            (spec, scheduler, num_starts, max_rounds, seed_value)
            for scheduler in ("round_robin", "random", "max_cost_first")
        ],
        processes=processes,
        journal=journal,
    )
