"""The paper's claim tables: one row builder per table or figure.

Each builder of :data:`CLAIM_TABLES` regenerates one table or figure of the
paper as a :class:`ClaimTable`.  ``tests/test_paper_claims.py`` asserts the
paper's claim on its rows, and ``scripts/claim_tables.py`` renders every
table into ``benchmarks/output/<name>.txt``.  Builders run serially: the
studies return identical rows at any process count.

A row that stands for an equilibrium carries ``certified``, the verdict of a
full :func:`~repro.core.equilibrium_report` with no candidate restriction.
On games of at most :data:`REFERENCE_MAX_N` nodes it also carries
``engine_free``, the verdict of the dict reference path (``engine=False``),
so each claim doubles as a differential test of the engine; elsewhere the
column reads ``-``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..constructions import (
    build_forest_of_willows,
    build_max_distance_equilibrium,
    max_tail_length,
)
from ..core import (
    FractionalBBCGame,
    Objective,
    UniformBBCGame,
    epsilon_equilibrium_report,
    equilibrium_report,
    iterated_best_response,
)
from ..dynamics import find_cycle_from_random_starts, reconstruct_figure4
from ..experiments import (
    empty_start_convergence_study,
    max_cost_first_convergence_study,
    random_preference_game,
    scheduler_comparison_study,
)
from ..gadgets import (
    bottom_switch_distances,
    build_matching_pennies_gadget,
    build_max_gadget,
    build_sat_reduction,
    equilibrium_search,
    no_equilibrium_search,
    satisfiable_direction_report,
    verify_case_analysis,
)
from ..sat import random_satisfiable_3sat, solve, tiny_unsatisfiable_formula
from .studies import (
    Row,
    connectivity_convergence_study,
    diameter_study,
    fairness_study,
    hypercube_study,
    max_poa_study,
    max_pos_study,
    poa_spectrum_study,
    regularity_study,
    ring_path_lower_bound_study,
)
from .tables import format_table

#: Equilibrium rows of games up to this size are also certified by the dict
#: reference path (the dearest, Figure 6's k=4 row at n=22, takes about 2.4 s).
REFERENCE_MAX_N = 30
#: Larger equilibrium rows are shown uncertified: the one such row, the
#: Lemma 7 willow (3, 2, 1) with n = 66, takes 20-40 s to certify in full.
CERTIFY_MAX_N = 62


@dataclass
class ClaimTable:
    """Titled row sections, trailing note lines, and facts only tests read."""

    sections: List[Tuple[str, List[Row]]]
    notes: List[str] = field(default_factory=list)
    facts: Dict[str, object] = field(default_factory=dict)

    def rows(self, index: int = 0) -> List[Row]:
        return self.sections[index][1]

    def render(self) -> str:
        text = "\n\n".join(format_table(rows, title=title) for title, rows in self.sections)
        return text + "".join("\n" + note for note in self.notes)


def _certificate(game, profile) -> Row:
    if game.num_nodes > CERTIFY_MAX_N:
        return {"certified": "-", "engine_free": "-"}
    reference = "-"
    if game.num_nodes <= REFERENCE_MAX_N:
        reference = equilibrium_report(game, profile, engine=False).is_equilibrium
    return {
        "certified": equilibrium_report(game, profile).is_equilibrium,
        "engine_free": reference,
    }


def _certify_willows(rows: List[Row], objective: Objective = Objective.SUM) -> List[Row]:
    for row in rows:
        forest = build_forest_of_willows(row["k"], row["h"], row.get("l", 0), objective=objective)
        row.update(_certificate(forest.game, forest.profile))
    return rows


def sec43_dynamics() -> ClaimTable:
    """Section 4.3: max-cost-first best-response walks and schedulers."""
    title = "Section 4.3: max-cost-first walks"
    return ClaimTable([
        (f"{title}, random starts",
         max_cost_first_convergence_study(8, 2, num_starts=6, max_rounds=50, seed=0)),
        (f"{title}, empty start", empty_start_convergence_study([6, 8, 10], k=2, max_rounds=80)),
        ("Section 4.3: scheduler comparison",
         scheduler_comparison_study(8, 2, num_starts=4, max_rounds=50, seed=1)),
    ])


def fig1_gadget() -> ClaimTable:
    """Figure 1 / Theorem 1: the matching-pennies gadget has no pure equilibrium."""
    gadget = build_matching_pennies_gadget()
    summary = no_equilibrium_search(gadget, stop_at_first=True)
    rows = [
        {
            "0C_choice": step.zero_top,
            "1C_choice": step.one_top,
            "bottoms_stable": step.bottoms_stable,
            "tops_stable": step.tops_stable,
            "deviating_central": step.deviating_central,
            "improvement": step.central_improvement,
        }
        for step in verify_case_analysis(gadget)
    ]
    note = (
        f"exhaustive search: {summary.profiles_examined} profiles, "
        f"{summary.equilibria_found} equilibria (paper predicts 0)"
    )
    return ClaimTable([("FIG1: case analysis of the Theorem 1 gadget", rows)], [note],
                      {"equilibria_found": summary.equilibria_found})


def _reduction_row(name: str, formula, assignment) -> Row:
    instance = build_sat_reduction(formula)
    report = satisfiable_direction_report(instance, assignment)
    return {
        "formula": name,
        "vars": formula.num_variables,
        "clauses": formula.num_clauses,
        "literals": sum(len(clause) for clause in formula.clauses),
        "game_nodes": instance.num_nodes,
        "variable_layer_stable": report.variable_nodes_stable,
        "clause_layer_stable": report.clause_nodes_stable,
        "hub_stable": report.hub_stable,
        "full_profile_stable": report.is_equilibrium,
        "max_regret": report.max_regret,
    }


def fig2_sat_reduction() -> ClaimTable:
    """Figure 2 / Theorem 2: 3-SAT reduction profiles (three satisfiable, one unsatisfiable)."""
    rows = []
    for seed in range(3):
        formula = random_satisfiable_3sat(3, 4, seed=seed)
        rows.append(_reduction_row(f"sat(seed={seed})", formula, solve(formula)))
    rows.append(_reduction_row("unsat(2 vars)", tiny_unsatisfiable_formula(), {1: True, 2: True}))
    return ClaimTable([("FIG2: 3-SAT -> BBC reduction (canonical profiles)", rows)])


def fig3_forest_of_willows() -> ClaimTable:
    """Figure 3 / Definition 1 / Lemma 6: the Forest of Willows spectrum."""
    rows = []
    for k, h, l in [(2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 3, 0), (2, 3, 1)]:
        forest = build_forest_of_willows(k, h, l)
        report = equilibrium_report(forest.game, forest.profile)
        social = forest.social_cost()
        rows.append({
            "k": k,
            "h": h,
            "l": l,
            "n": forest.num_nodes,
            "stable": report.is_equilibrium,
            "max_regret": report.max_regret,
            "social_cost": social,
            "per_node_cost": social / forest.num_nodes,
            "optimum_lower_bound": forest.game.minimum_possible_social_cost(),
        })
    return ClaimTable([("FIG3: Forest of Willows stable graphs", rows)])


def fig4_loop() -> ClaimTable:
    """Figure 4: a (7,2)-uniform best-response loop, reconstructed."""
    found = reconstruct_figure4(max_results=1)
    random_cycle = find_cycle_from_random_starts(7, 2, attempts=30, seed=0)
    rows, notes = [], []
    for reconstruction in found[:1]:
        rows = [
            {"step": index + 1, "node": node, "rewires_to": str(sorted(strategy))}
            for index, (node, strategy) in enumerate(reconstruction.deviation_sequence)
        ]
        notes = [
            "initial configuration:\n" + reconstruction.profile.describe(),
            f"costs match figure exactly: {reconstruction.costs_match_figure}",
        ]
    notes.append(f"independent random-start cycle found: {random_cycle is not None}")
    title = "FIG4: reconstructed best-response loop (7,2)-uniform game"
    return ClaimTable([(title, rows)], notes,
                      {"reconstructions": found, "random_cycle": random_cycle})


def fig5_max_gadget() -> ClaimTable:
    """Figure 5 / Theorem 7: the BBC-max gadget reconstruction (measured, not certified)."""
    gadget = build_max_gadget()
    distances = bottom_switch_distances(gadget)
    summary = equilibrium_search(gadget, stop_at_first=True)
    row = {
        "nodes": gadget.game.num_nodes,
        "bottom_via_central_maxdist": distances["via_central"],
        "bottom_via_sink_maxdist": distances["via_sink"],
        "paper_predicts": "3 vs 4",
        "restricted_equilibria_found": summary.equilibria_found,
        "profiles_examined": summary.profiles_examined,
    }
    return ClaimTable([("FIG5: BBC-max gadget reconstruction (Theorem 7)", [row])])


def fig6_max_poa() -> ClaimTable:
    """Figure 6 / Theorem 8: certified high-cost BBC-max equilibria."""
    rows = max_poa_study([(3, 3), (3, 5), (4, 3)])
    for row in rows:
        instance = build_max_distance_equilibrium(row["k"], row["tail_length"])
        row.update(_certificate(instance.game, instance.profile))
    return ClaimTable([("FIG6 / Theorem 8: BBC-max price of anarchy", rows)])


def thm3_fractional() -> ClaimTable:
    """Theorem 3: fractional best-response dynamics reach (epsilon-)equilibria.

    Every final profile is certified by the from-scratch reference path,
    independent of every cache the engine-backed dynamics populated.  Needs
    scipy: without it the dynamics raise ``BestResponseUnavailable``.
    """
    bases = {
        "uniform(4,1)": UniformBBCGame(4, 1),
        "uniform(5,2)": UniformBBCGame(5, 2),
        "uniform(8,2)": UniformBBCGame(8, 2),
        "uniform(12,2)": UniformBBCGame(12, 2),
        "random(n=5,seed=1)": random_preference_game(5, budget=1, seed=1),
        "random(n=6,seed=2)": random_preference_game(6, budget=2, seed=2),
        "random(n=8,seed=3)": random_preference_game(8, budget=2, seed=3),
    }
    rows = []
    for name, base in bases.items():
        game = FractionalBBCGame(base)
        result = iterated_best_response(game, max_rounds=15, tolerance=1e-4)
        report = epsilon_equilibrium_report(game, result.profile, epsilon=1e-3, engine=False)
        rows.append({
            "game": name,
            "nodes": base.num_nodes,
            "rounds": result.rounds,
            "converged": result.converged,
            "max_final_regret": result.max_final_regret,
            "certified_regret": report.max_regret,
            "final_social_cost": game.social_cost(result.profile),
        })
    title = "Theorem 3: fractional best-response dynamics (epsilon = 1e-4)"
    return ClaimTable([(title, rows)])


def lemma1_fairness() -> ClaimTable:
    """Lemma 1: stable graphs are essentially fair."""
    rows = fairness_study([(2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 3, 0)])
    return ClaimTable([("Lemma 1: fairness of stable graphs", rows)])


def lemma7_diameter() -> ClaimTable:
    """Lemma 7: the diameter of a stable graph is O(sqrt(n) log_k n)."""
    rows = _certify_willows(diameter_study([(2, 2, 0), (2, 2, 2), (2, 3, 0), (2, 3, 2), (3, 2, 1)]))
    return ClaimTable([("Lemma 7: diameter of stable graphs vs sqrt(n) log_k n", rows)])


def thm4_poa() -> ClaimTable:
    """Theorem 4: the willow spectrum over every Definition-1 tail at (k, h) = (2, 2)."""
    rows = _certify_willows(poa_spectrum_study(2, 2, range(max_tail_length(2, 2) + 1)))
    return ClaimTable([("Theorem 4: willow spectrum, PoS vs PoA", rows)])


def thm5_cayley() -> ClaimTable:
    """Theorem 5 / Corollary 1 / Lemma 8: regular (Cayley) graphs versus stability."""
    return ClaimTable([
        ("Theorem 5: Chord-like offset graphs (k=2)", regularity_study([12, 16, 24, 32], k=2)),
        ("Corollary 1: hypercubes", hypercube_study([2, 3, 5])),
    ])


def thm6_connectivity() -> ClaimTable:
    """Theorem 6: round-robin walks reach strong connectivity within n² probes."""
    return ClaimTable([
        ("Theorem 6: random starts (upper bound n^2)",
         connectivity_convergence_study([8, 12, 16], k=2, seeds=(0, 1))),
        ("Theorem 6: ring+path adversarial starts (Omega(n^2))",
         ring_path_lower_bound_study([(6, 3), (10, 5), (14, 7)])),
    ])


def thm9_max_pos() -> ClaimTable:
    """Theorem 9: certified tail-free BBC-max willows near the optimum."""
    rows = _certify_willows(max_pos_study([(2, 2), (2, 3), (3, 2)]), Objective.MAX)
    return ClaimTable([("Theorem 9: BBC-max price of stability (willows, l=0)", rows)])


#: Output name -> row builder, in the order the tables are regenerated.
CLAIM_TABLES: Dict[str, Callable[[], ClaimTable]] = {
    build.__name__: build
    for build in (
        sec43_dynamics, fig1_gadget, fig2_sat_reduction, fig3_forest_of_willows, fig4_loop,
        fig5_max_gadget, fig6_max_poa, thm3_fractional, lemma1_fairness, lemma7_diameter,
        thm4_poa, thm5_cayley, thm6_connectivity, thm9_max_pos,
    )
}
