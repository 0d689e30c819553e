"""Loops in best-response walks: Figure 4 and the non-potential-game result.

Figure 4 of the paper shows a (7, 2)-uniform game configuration from which a
round-robin best-response walk (starting at node 6, then 0, 1, 2, ...) loops:
after six deviations — nodes 6, 3, 2, 6, 3, 2 rewiring to ``[0 2]``,
``[5 6]``, ``[0 3]``, ``[2 5]``, ``[0 6]``, ``[3 5]`` respectively — the walk
returns to the initial configuration.  Because the loop closes, the initial
links of the three rewiring nodes must equal their *final* rewirings
(``6 -> {2, 5}``, ``3 -> {0, 6}``, ``2 -> {3, 5}``); the links of the four
never-moving nodes (0, 1, 4, 5) are not printed in the paper, so
:func:`reconstruct_figure4` recovers them by exhaustive search over all
``C(6,2)^4`` completions and checking which ones reproduce the published
deviation sequence exactly.

The existence of any such loop shows uniform BBC games are not (ordinal)
potential games; :func:`find_cycle_from_random_starts` demonstrates the same
phenomenon without relying on the published example.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core import StrategyProfile, UniformBBCGame, best_response
from ..rng import SeedLike, as_rng
from .walk import WalkResult, run_best_response_walk

#: The published rewiring loop: (node, new strategy) in walk order.
FIGURE4_DEVIATION_SEQUENCE: Tuple[Tuple[int, FrozenSet[int]], ...] = (
    (6, frozenset({0, 2})),
    (3, frozenset({5, 6})),
    (2, frozenset({0, 3})),
    (6, frozenset({2, 5})),
    (3, frozenset({0, 6})),
    (2, frozenset({3, 5})),
)

#: Initial strategies of the rewiring nodes, implied by the loop closing.
FIGURE4_KNOWN_STRATEGIES: Dict[int, FrozenSet[int]] = {
    6: frozenset({2, 5}),
    3: frozenset({0, 6}),
    2: frozenset({3, 5}),
}

#: Node costs printed next to the initial (top-left) configuration.
FIGURE4_INITIAL_COSTS: Dict[int, float] = {0: 11, 1: 12, 2: 10, 3: 11, 4: 11, 5: 11, 6: 10}

#: Round-robin order used in the figure: node 6 first, then 0, 1, 2, ...
FIGURE4_ROUND_ORDER: Tuple[int, ...] = (6, 0, 1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Figure4Reconstruction:
    """One completion of Figure 4's initial configuration that loops as published."""

    profile: StrategyProfile
    deviation_sequence: Tuple[Tuple[int, FrozenSet[int]], ...]
    costs_match_figure: bool
    initial_costs: Dict[int, float]


def _walk_deviation_sequence(
    game: UniformBBCGame,
    profile: StrategyProfile,
    *,
    max_deviations: int,
    expected: Optional[Sequence[Tuple[int, FrozenSet[int]]]] = None,
    engine=None,
) -> Tuple[List[Tuple[int, FrozenSet[int]]], StrategyProfile]:
    """Simulate the Figure 4 walk and collect its deviations.

    When ``expected`` is given the simulation aborts as soon as the observed
    sequence diverges from it (used for fast pruning during the search).
    """
    observed: List[Tuple[int, FrozenSet[int]]] = []
    order = list(FIGURE4_ROUND_ORDER)
    position = 0
    while len(observed) < max_deviations:
        node = order[position % len(order)]
        position += 1
        result = best_response(game, profile, node, engine=engine)
        if result.improved:
            observed.append((node, frozenset(result.best_strategy)))
            profile = result.apply(profile)
            if expected is not None:
                index = len(observed) - 1
                if index >= len(expected) or observed[index] != tuple(expected[index]):
                    return observed, profile
        if position > len(order) * (max_deviations + 3):
            break
    return observed, profile


def reconstruct_figure4(
    *, max_results: int = 1, require_cost_match: bool = False, engine=None
) -> List[Figure4Reconstruction]:
    """Search for completions of Figure 4's initial configuration.

    Returns up to ``max_results`` completions whose round-robin walk (node 6
    first) reproduces the published six-deviation loop and returns to the
    initial configuration.  When ``require_cost_match`` is set, the initial
    node costs must additionally equal the values printed in the figure.

    The ``C(6,2)^4`` completions are visited in Gray order
    (:func:`repro.engine.gray_code_profiles` over the free nodes, the fixed
    nodes as singleton sets), so successive candidates differ in one node and
    the engine's version-stamped rows stay hot, and each candidate is first
    screened by node 6's exact best response: the published walk probes node
    6 first, so unless that single probe already yields the published
    rewiring ``6 -> {0, 2}``, the completion cannot reproduce the sequence
    (whichever node deviated first would mismatch, and a fully stable
    completion produces no deviations at all).  ``engine`` is the usual
    tri-state: ``False`` scores every probe with the dict-based reference
    oracle; the results are identical either way.
    """
    if max_results < 1:
        return []
    game = UniformBBCGame(7, 2)
    free_nodes = (0, 1, 4, 5)
    sets: Dict[int, List[FrozenSet[int]]] = {
        node: [strategy] for node, strategy in FIGURE4_KNOWN_STRATEGIES.items()
    }
    sets.update(
        {
            node: [
                frozenset(combo)
                for combo in itertools.combinations([v for v in range(7) if v != node], 2)
            ]
            for node in free_nodes
        }
    )
    results: List[Figure4Reconstruction] = []
    expected = list(FIGURE4_DEVIATION_SEQUENCE)
    first_node, first_strategy = expected[0]

    from ..engine.sweep import gray_code_profiles

    for profile in gray_code_profiles(game, sets):
        initial_costs: Optional[Dict[int, float]] = None
        if require_cost_match:
            initial_costs = game.all_costs(profile, engine=engine)
            if any(
                abs(initial_costs[node] - FIGURE4_INITIAL_COSTS[node]) > 1e-9
                for node in range(7)
            ):
                continue

        probe = best_response(game, profile, first_node, engine=engine)
        if not probe.improved or probe.best_strategy != first_strategy:
            continue

        observed, final_profile = _walk_deviation_sequence(
            game, profile, max_deviations=len(expected), expected=expected, engine=engine
        )
        if len(observed) != len(expected):
            continue
        if any(observed[i] != expected[i] for i in range(len(expected))):
            continue
        if final_profile != profile:
            continue
        if initial_costs is None:
            initial_costs = game.all_costs(profile, engine=engine)
        results.append(
            Figure4Reconstruction(
                profile=profile,
                deviation_sequence=tuple(observed),
                costs_match_figure=all(
                    abs(initial_costs[node] - FIGURE4_INITIAL_COSTS[node]) < 1e-9
                    for node in range(7)
                ),
                initial_costs=initial_costs,
            )
        )
        if len(results) >= max_results:
            break
    return results


def verify_figure4_loop(reconstruction: Figure4Reconstruction, *, engine=None) -> bool:
    """Re-run the walk on a reconstruction and confirm it closes the loop."""
    game = UniformBBCGame(7, 2)
    observed, final_profile = _walk_deviation_sequence(
        game,
        reconstruction.profile,
        max_deviations=len(FIGURE4_DEVIATION_SEQUENCE),
        engine=engine,
    )
    return (
        tuple(observed) == FIGURE4_DEVIATION_SEQUENCE
        and final_profile == reconstruction.profile
    )


def find_cycle_from_random_starts(
    n: int,
    k: int,
    *,
    attempts: int = 50,
    max_rounds: int = 60,
    seed: SeedLike = None,
) -> Optional[WalkResult]:
    """Look for a best-response loop in the (n, k)-uniform game.

    Runs round-robin walks from random budget-maximal configurations and
    returns the first walk that provably cycles (configuration repeated at a
    round boundary without reaching an equilibrium), or ``None``.
    """
    rng = as_rng(seed)
    game = UniformBBCGame(n, k)
    nodes = list(range(n))
    for _ in range(attempts):
        strategies = {
            node: frozenset(rng.sample([v for v in nodes if v != node], k)) for node in nodes
        }
        profile = StrategyProfile(strategies)
        result = run_best_response_walk(
            game,
            profile,
            scheduler="round_robin",
            max_rounds=max_rounds,
            detect_cycles=True,
        )
        if result.cycle_detected and not result.reached_equilibrium:
            return result
    return None
