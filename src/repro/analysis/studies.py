"""Parameter-sweep studies behind the paper's theorems.

Each function regenerates the data for one claim of the paper as a list of
row dictionaries; :mod:`repro.analysis.claims` builds the claim tables from
them, which the tier-1 tests assert on and ``scripts/claim_tables.py``
renders under ``benchmarks/output/``.

Every grid study is a map over independent parameter cells, so each one
accepts ``processes`` and fans the cells out through
:func:`repro.experiments.parallel_map` (module-level cell workers, plain
picklable parameters, rows returned in grid order).  ``processes=1`` — the
default — is a deterministic serial loop; any other count produces the
identical rows.  Each study also accepts ``journal`` (a
:class:`~repro.reliability.CheckpointJournal` or a path), passed through to
``parallel_map`` so a killed grid resumes from its completed cells.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from ..constructions import (
    build_forest_of_willows,
    build_max_distance_equilibrium,
    chord_like_offsets,
    hypercube_cayley,
    is_cayley_stable,
    offset_graph,
    theorem5_deviation,
)
from ..constructions.ring_path import build_ring_with_path
from ..core import (
    Objective,
    UniformBBCGame,
    equilibrium_report,
    fairness_report,
    lemma1_additive_bound,
    lemma1_multiplicative_bound,
    random_profile,
    swap_stability_report,
    theorem4_poa_lower_bound,
    theorem8_max_poa_lower_bound,
)
from ..dynamics import probes_to_strong_connectivity
from ..experiments.parallel import parallel_map
from ..graphs import diameter

Row = Dict[str, object]


# --------------------------------------------------------------------------- #
# Lemma 1: fairness of stable graphs
# --------------------------------------------------------------------------- #
def _fairness_cell(args) -> Row:
    k, height, tail, exact = args
    forest = build_forest_of_willows(k, height, tail)
    game, profile = forest.game, forest.profile
    report = fairness_report(game, profile)
    uniform = UniformBBCGame(max(game.num_nodes, 2), max(k, 1)) if k >= 1 else None
    additive_bound = lemma1_additive_bound(uniform) if uniform else float("nan")
    multiplicative_bound = lemma1_multiplicative_bound(uniform) if uniform else float("nan")
    if exact:
        stable = equilibrium_report(game, profile).is_equilibrium
    else:
        stable = swap_stability_report(game, profile).is_equilibrium
    return {
        "k": k,
        "h": height,
        "l": tail,
        "n": game.num_nodes,
        "stable": stable,
        "min_cost": report.min_cost,
        "max_cost": report.max_cost,
        "additive_gap": report.additive_gap,
        "additive_bound": additive_bound,
        "cost_ratio": report.ratio,
        "ratio_bound": multiplicative_bound,
        "within_additive_bound": report.additive_gap <= additive_bound,
    }


def fairness_study(
    parameter_grid: Sequence[tuple], *, exact: bool = True, processes: int = 1, journal=None
) -> List[Row]:
    """Fairness of Forest-of-Willows equilibria for each ``(k, h, l)`` triple.

    Lemma 1 bounds the cost spread of *any* stable graph: additively by
    ``n + n·floor(log_k n)`` and multiplicatively by ``2 + 1/k + o(1)``.  The
    study verifies both on explicit stable graphs.
    """
    cells = [(k, height, tail, exact) for k, height, tail in parameter_grid]
    return parallel_map(_fairness_cell, cells, processes=processes, journal=journal)


# --------------------------------------------------------------------------- #
# Theorem 4: the spectrum of stable graphs and the PoA / PoS estimates
# --------------------------------------------------------------------------- #
def _poa_spectrum_cell(args) -> Row:
    k, height, tail = args
    forest = build_forest_of_willows(k, height, tail)
    game = forest.game
    n = game.num_nodes
    social = forest.social_cost()
    optimum = game.minimum_possible_social_cost()
    return {
        "k": k,
        "h": height,
        "l": tail,
        "n": n,
        "social_cost": social,
        "optimum_lower_bound": optimum,
        "cost_over_optimum": social / optimum,
        "theorem4_poa_scale": theorem4_poa_lower_bound(n, k) if k >= 2 else float("nan"),
        "satisfies_definition": forest.parameters.satisfies_definition_constraints(),
    }


def poa_spectrum_study(
    k: int, height: int, tail_lengths: Sequence[int], *, processes: int = 1, journal=None
) -> List[Row]:
    """Social cost of willow equilibria versus the analytic optimum.

    Sweeping the tail length from 0 upwards regenerates the Theorem 4
    spectrum: the price of stability stays Θ(1) (the ``l = 0`` row) while the
    worst stable graph's cost grows like ``n² sqrt(n/k)``.
    """
    cells = [(k, height, tail) for tail in tail_lengths]
    return parallel_map(_poa_spectrum_cell, cells, processes=processes, journal=journal)


# --------------------------------------------------------------------------- #
# Lemma 7: diameter of stable graphs
# --------------------------------------------------------------------------- #
def _diameter_cell(args) -> Row:
    k, height, tail = args
    forest = build_forest_of_willows(k, height, tail)
    graph = forest.profile.graph()
    measured = diameter(graph)
    n = forest.num_nodes
    bound_scale = math.sqrt(n) * (math.log(n, k) if k >= 2 else n)
    return {
        "k": k,
        "h": height,
        "l": tail,
        "n": n,
        "diameter": measured,
        "sqrt_n_log_k_n": bound_scale,
        "ratio": (measured / bound_scale) if measured is not None else float("nan"),
    }


def diameter_study(parameter_grid: Sequence[tuple], *, processes: int = 1, journal=None) -> List[Row]:
    """Diameter of willow equilibria versus the ``O(sqrt(n)·log_k n)`` bound."""
    return parallel_map(_diameter_cell, list(parameter_grid), processes=processes, journal=journal)


# --------------------------------------------------------------------------- #
# Theorem 5 / Corollary 1 / Lemma 8: (in)stability of regular graphs
# --------------------------------------------------------------------------- #
def _regularity_cell(args) -> Row:
    n, k = args
    offsets = chord_like_offsets(n, k)
    cayley = offset_graph(n, offsets)
    deviations = theorem5_deviation(cayley)
    best_improvement = max((d.improvement for d in deviations), default=0.0)
    return {
        "n": n,
        "k": k,
        "offsets": str(list(offsets)),
        "stable": is_cayley_stable(cayley),
        "thm5_best_improvement": best_improvement,
        "thm5_deviation_improves": best_improvement > 1e-9,
    }


def regularity_study(sizes: Sequence[int], k: int, *, processes: int = 1, journal=None) -> List[Row]:
    """Stability of Chord-like offset (Abelian Cayley) graphs of degree ``k``."""
    return parallel_map(_regularity_cell, [(n, k) for n in sizes], processes=processes, journal=journal)


def _hypercube_cell(dimension: int) -> Row:
    cayley = hypercube_cayley(dimension)
    deviations = theorem5_deviation(cayley)
    best_improvement = max((d.improvement for d in deviations), default=0.0)
    return {
        "dimension": dimension,
        "n": 2 ** dimension,
        "k": dimension,
        "stable": is_cayley_stable(cayley),
        "thm5_best_improvement": best_improvement,
    }


def hypercube_study(dimensions: Sequence[int], *, processes: int = 1, journal=None) -> List[Row]:
    """Corollary 1: hypercubes are unstable for ``d > 4`` (and small ones may not be)."""
    return parallel_map(_hypercube_cell, list(dimensions), processes=processes, journal=journal)


# --------------------------------------------------------------------------- #
# Theorem 6: convergence to strong connectivity
# --------------------------------------------------------------------------- #
def _connectivity_cell(args) -> Row:
    n, k, seeds = args
    game = UniformBBCGame(n, k)
    worst = 0
    for seed in seeds:
        profile = random_profile(game, seed=seed)
        probes = probes_to_strong_connectivity(game, profile)
        worst = max(worst, probes if probes is not None else n * n + 1)
    return {
        "n": n,
        "k": k,
        "worst_probes_to_connectivity": worst,
        "n_squared": n * n,
        "within_bound": worst <= n * n,
    }


def connectivity_convergence_study(
    sizes: Sequence[int],
    k: int,
    *,
    seeds: Sequence[int] = (0, 1, 2),
    processes: int = 1,
    journal=None,
) -> List[Row]:
    """Probes to strong connectivity from random starts, versus the n² bound."""
    cells = [(n, k, tuple(seeds)) for n in sizes]
    return parallel_map(_connectivity_cell, cells, processes=processes, journal=journal)


def _ring_path_cell(args) -> Row:
    ring_size, path_size = args
    instance = build_ring_with_path(ring_size, path_size)
    probes = probes_to_strong_connectivity(
        instance.game, instance.profile, round_order=instance.round_order
    )
    n = instance.num_nodes
    return {
        "ring": ring_size,
        "path": path_size,
        "n": n,
        "probes_to_connectivity": probes,
        "n_squared": n * n,
        "quadratic_fraction": (probes / (n * n)) if probes else 0.0,
    }


def ring_path_lower_bound_study(
    sizes: Sequence[tuple], *, processes: int = 1, journal=None
) -> List[Row]:
    """Probes to connectivity from the adversarial ring+path starts (Ω(n²))."""
    return parallel_map(_ring_path_cell, list(sizes), processes=processes, journal=journal)


# --------------------------------------------------------------------------- #
# Theorem 8 / 9: BBC-max price of anarchy and stability
# --------------------------------------------------------------------------- #
def _max_poa_cell(args) -> Row:
    k, tail_length = args
    instance = build_max_distance_equilibrium(k, tail_length)
    game = instance.game
    n = game.num_nodes
    social = instance.social_cost()
    optimum = game.minimum_possible_social_cost()
    return {
        "k": k,
        "tail_length": tail_length,
        "n": n,
        "social_cost": social,
        "optimum_lower_bound": optimum,
        "poa_estimate": social / optimum,
        "theorem8_scale": theorem8_max_poa_lower_bound(n, k),
    }


def max_poa_study(parameters: Sequence[tuple], *, processes: int = 1, journal=None) -> List[Row]:
    """Social cost of the Figure 6 BBC-max equilibria versus the optimum scale."""
    return parallel_map(_max_poa_cell, list(parameters), processes=processes, journal=journal)


def _max_pos_cell(args) -> Row:
    k, height = args
    forest = build_forest_of_willows(k, height, 0, objective=Objective.MAX)
    game = forest.game
    n = game.num_nodes
    social = forest.social_cost()
    optimum = game.minimum_possible_social_cost()
    return {
        "k": k,
        "h": height,
        "n": n,
        "social_cost": social,
        "optimum_lower_bound": optimum,
        "pos_estimate": social / optimum,
    }


def max_pos_study(parameter_grid: Sequence[tuple], *, processes: int = 1, journal=None) -> List[Row]:
    """Theorem 9: tail-free willow forests are near-optimal under the max objective."""
    return parallel_map(_max_pos_cell, list(parameter_grid), processes=processes, journal=journal)


# --------------------------------------------------------------------------- #
# Theorem 2 context: exhaustive equilibrium census of small uniform games
# --------------------------------------------------------------------------- #
def equilibrium_census_study(
    parameter_grid: Sequence[tuple],
    *,
    objective: Objective = Objective.SUM,
    processes: int = 1,
    journal_dir=None,
) -> List[Row]:
    """Count every pure equilibrium of small ``(n, k)``-uniform games.

    Theorem 2 makes pure-NE *existence* NP-hard in general, so the census
    brute-forces the question where brute force is honest: the full Gray
    sweep over all budget-maximal profiles, counting equilibria rather than
    stopping at the first.

    Unlike the grid studies above, the dominant axis here is the *profile
    space* of each cell, not the cell count — so ``processes`` shards each
    cell's Gray sweep through
    :func:`~repro.core.exhaustive_equilibrium_search`'s ``processes=``
    (contiguous Gray-rank shards, each worker rebuilding the game from its
    spec) instead of fanning the cells out, and the cells themselves run in
    order in the parent.
    Rows are bit-identical at any worker count.  ``journal_dir`` (a
    directory path) checkpoints each cell's sweep into its own journal file
    ``census-n{n}-k{k}.json``, so a killed census resumes per cell *and*
    per checkpoint block within the interrupted cell.
    """
    import os

    from ..core import exhaustive_equilibrium_search

    rows: List[Row] = []
    for n, k in parameter_grid:
        game = UniformBBCGame(n, k, objective=objective)
        journal = None
        if journal_dir is not None:
            os.makedirs(str(journal_dir), exist_ok=True)
            journal = os.path.join(str(journal_dir), f"census-n{n}-k{k}.json")
        summary = exhaustive_equilibrium_search(
            game,
            stop_at_first=False,
            processes=processes,
            journal=journal,
        )
        rows.append(
            {
                "n": n,
                "k": k,
                "profiles": summary.profiles_examined,
                "equilibria": summary.equilibria_found,
                "equilibrium_fraction": (
                    summary.equilibria_found / summary.profiles_examined
                    if summary.profiles_examined
                    else 0.0
                ),
                "has_equilibrium": summary.has_equilibrium,
                "exhausted": summary.exhausted,
            }
        )
    return rows
