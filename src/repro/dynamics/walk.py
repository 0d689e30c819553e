"""Best-response walks (Section 4.3).

A *best-response walk* repeatedly picks a node, tests whether it is stable,
and if not replaces its links with an exact best response.  The paper studies
round-robin walks (every node probes once per round) and remarks on
max-cost-first walks; both schedules are implemented here, together with the
instrumentation the paper's results need: when strong connectivity is first
reached (Theorem 6), whether a pure equilibrium is reached, and whether the
walk enters a loop (Figure 4 / the non-potential-game result).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..graphs import is_strongly_connected
from ..core import BBCGame, StrategyProfile, best_response
from ..rng import SeedLike, as_rng

Node = Hashable


@dataclass(frozen=True)
class WalkStep:
    """One best-response probe of the walk."""

    index: int
    node: Node
    improved: bool
    old_strategy: Tuple[Node, ...]
    new_strategy: Tuple[Node, ...]
    old_cost: float
    new_cost: float


@dataclass
class WalkResult:
    """Full trace and summary statistics of one best-response walk."""

    final_profile: StrategyProfile
    probes: int
    deviations: int
    rounds: int
    reached_equilibrium: bool
    strong_connectivity_probe: Optional[int]
    cycle_detected: bool
    cycle_start_round: Optional[int]
    cycle_length_rounds: Optional[int]
    steps: List[WalkStep] = field(default_factory=list)

def _round_order(
    game: BBCGame,
    scheduler: str,
    profile: StrategyProfile,
    rng: random.Random,
    fixed_order: Optional[Sequence[Node]],
    engine,
) -> List[Node]:
    """Return the node order for one round under the chosen scheduler."""
    nodes = list(game.nodes)
    if fixed_order is not None:
        return list(fixed_order)
    if scheduler == "round_robin":
        return nodes
    if scheduler == "random":
        order = nodes[:]
        rng.shuffle(order)
        return order
    if scheduler == "max_cost_first":
        costs = game.all_costs(profile, engine=engine)
        return sorted(nodes, key=lambda node: (-costs[node], repr(node)))
    raise ValueError(f"unknown scheduler {scheduler!r}")


def run_best_response_walk(
    game: BBCGame,
    initial: StrategyProfile,
    *,
    scheduler: str = "round_robin",
    round_order: Optional[Sequence[Node]] = None,
    max_rounds: int = 100,
    stop_at_equilibrium: bool = True,
    stop_at_strong_connectivity: bool = False,
    detect_cycles: bool = True,
    record_steps: bool = False,
    seed: SeedLike = None,
    engine=None,
) -> WalkResult:
    """Run a best-response walk and return its trace.

    Parameters
    ----------
    scheduler:
        ``"round_robin"`` (the paper's main schedule), ``"max_cost_first"``
        (the schedule of the experimental remarks in Section 4.3), or
        ``"random"``.
    round_order:
        Explicit node order for every round (overrides the scheduler's
        ordering; used by the Figure 4 and ring+path experiments).
    stop_at_equilibrium:
        Whether a full no-deviation round ends the walk early (the default).
        ``reached_equilibrium`` in the result is truthful either way: with
        ``stop_at_equilibrium=False`` the walk keeps probing the (now fixed)
        profile until ``max_rounds`` but still reports that an equilibrium
        was reached.
    stop_at_strong_connectivity:
        Stop as soon as the formed graph is strongly connected (the
        Theorem 6 experiments measure exactly this probe count).
    detect_cycles:
        Detect loops by hashing the configuration at round boundaries; a loop
        certifies that this walk never converges (the non-potential-game
        phenomenon of Figure 4).
    engine:
        Same tri-state convention as every routed entry point: ``None`` (the
        default) uses the shared flat-array cost engine, so successive probes
        reuse every distance row a deviation did not invalidate; ``False``
        forces the reference dict-based oracle (the reference arm of the
        ``walk`` scenarios in ``scripts/bench_speed.py``); an explicit
        :class:`~repro.engine.CostEngine` controls cache sharing.
    """
    game.validate_profile(initial)
    rng = as_rng(seed)
    profile = initial
    probes = 0
    deviations = 0
    steps: List[WalkStep] = []
    strong_probe: Optional[int] = None
    seen_rounds: Dict[object, int] = {}
    cycle_detected = False
    cycle_start: Optional[int] = None
    cycle_length: Optional[int] = None
    reached_equilibrium = False

    if is_strongly_connected(profile.graph()):
        strong_probe = 0
        if stop_at_strong_connectivity:
            return WalkResult(
                final_profile=profile,
                probes=0,
                deviations=0,
                rounds=0,
                reached_equilibrium=False,
                strong_connectivity_probe=0,
                cycle_detected=False,
                cycle_start_round=None,
                cycle_length_rounds=None,
                steps=steps,
            )

    rounds_done = 0
    stop_now = False
    for round_index in range(max_rounds):
        # Once a full round passed with no deviation the profile is a pure
        # equilibrium and can never move again, so a repeated fingerprint is
        # the fixed point, not a loop — skip the cycle bookkeeping for it.
        if detect_cycles and not reached_equilibrium:
            key = profile.fingerprint()
            if key in seen_rounds:
                cycle_detected = True
                cycle_start = seen_rounds[key]
                cycle_length = round_index - seen_rounds[key]
                break
            seen_rounds[key] = round_index

        order = _round_order(game, scheduler, profile, rng, round_order, engine)
        any_deviation = False
        stop_now = False
        for node in order:
            result = best_response(game, profile, node, engine=engine)
            probes += 1
            if result.improved:
                deviations += 1
                any_deviation = True
                if record_steps:
                    steps.append(
                        WalkStep(
                            index=probes,
                            node=node,
                            improved=True,
                            old_strategy=tuple(sorted(result.current_strategy, key=repr)),
                            new_strategy=tuple(sorted(result.best_strategy, key=repr)),
                            old_cost=result.current_cost,
                            new_cost=result.best_cost,
                        )
                    )
                profile = result.apply(profile)
                if strong_probe is None and is_strongly_connected(profile.graph()):
                    strong_probe = probes
                    if stop_at_strong_connectivity:
                        stop_now = True
                        break
        rounds_done = round_index + 1
        if stop_now:
            break
        if not any_deviation:
            # The flag records the fact; the *stopping* decision is separate,
            # so stop_at_equilibrium=False keeps probing until max_rounds.
            reached_equilibrium = True
            if stop_at_equilibrium:
                break

    if (
        detect_cycles
        and not cycle_detected
        and not reached_equilibrium
        and not stop_now
    ):
        # The loop checks fingerprints at round *starts*, so a configuration
        # that first repeats exactly when the round budget runs out would
        # otherwise go unreported; close the window with one last check.
        key = profile.fingerprint()
        if key in seen_rounds:
            cycle_detected = True
            cycle_start = seen_rounds[key]
            cycle_length = rounds_done - seen_rounds[key]

    return WalkResult(
        final_profile=profile,
        probes=probes,
        deviations=deviations,
        rounds=rounds_done,
        reached_equilibrium=reached_equilibrium,
        strong_connectivity_probe=strong_probe,
        cycle_detected=cycle_detected,
        cycle_start_round=cycle_start,
        cycle_length_rounds=cycle_length,
        steps=steps,
    )


def probes_to_strong_connectivity(
    game: BBCGame,
    initial: StrategyProfile,
    *,
    round_order: Optional[Sequence[Node]] = None,
    max_rounds: Optional[int] = None,
    engine=None,
) -> Optional[int]:
    """Return the number of best-response probes until strong connectivity.

    Theorem 6 guarantees this is at most ``n²`` for round-robin walks; the
    helper returns ``None`` if connectivity was not reached within
    ``max_rounds`` rounds (default ``n + 2``, enough for the theorem bound).
    """
    n = game.num_nodes
    result = run_best_response_walk(
        game,
        initial,
        round_order=round_order,
        max_rounds=max_rounds if max_rounds is not None else n + 2,
        stop_at_equilibrium=False,
        stop_at_strong_connectivity=True,
        detect_cycles=False,
        engine=engine,
    )
    return result.strong_connectivity_probe
