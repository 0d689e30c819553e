"""Theorem 7 / Figure 5: BBC-max games without pure Nash equilibria.

Figure 5 modifies the Figure 1 gadget for the max-distance objective by
attaching a "sink chain" to each sub-gadget: ``iLT -> iS -> iA -> iB2 -> iC``.
A bottom node that cares equally about its sink ``iS`` and its central ``iC``
then faces the paper's max-switch: linking to the central yields a maximum
distance of 3 when the central points at ``iLT`` (the sink is reached through
``iC -> iLT -> iS``) and ``M`` otherwise, while linking to the sink always
yields a maximum distance of 4 (the chain returns to the central).

The arXiv text specifies the bottom switch precisely but leaves the central
nodes' max-objective preferences to "as in Theorem 1", which does not pin
down a unique construction (under the max objective a central with an
unreachable secondary target is indifferent between its tops).  We therefore
ship the reconstructed gadget for study and verify its properties
empirically; the no-equilibrium property of Theorem 7 is *not* certified by
this module, only measured (``scripts/claim_tables.py`` records the
measurement in ``benchmarks/output/fig5_max_gadget.txt``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Tuple

from ..core import (
    BBCGame,
    Objective,
    SearchSummary,
    StrategyProfile,
    exhaustive_equilibrium_search,
)

NodeName = str

_SUBGADGET_SUFFIXES = ("C", "LT", "RT", "LB", "RB", "S", "A", "B2")


@dataclass(frozen=True)
class MaxGadget:
    """The reconstructed Figure 5 game plus its candidate strategy sets."""

    game: BBCGame
    bottom_weight: float

    @property
    def nodes(self) -> Tuple[NodeName, ...]:
        """Return all sixteen node names."""
        return self.game.nodes

    def candidate_targets(self) -> Dict[NodeName, List[NodeName]]:
        """Return per-node strategy restrictions for exhaustive searches."""
        candidates: Dict[NodeName, List[NodeName]] = {}
        for prefix, other in (("g0", "g1"), ("g1", "g0")):
            candidates[f"{prefix}LT"] = [f"{prefix}S"]
            candidates[f"{prefix}S"] = [f"{prefix}A"]
            candidates[f"{prefix}A"] = [f"{prefix}B2"]
            candidates[f"{prefix}B2"] = [f"{prefix}C"]
            candidates[f"{prefix}RT"] = [f"{other}LB"]
            candidates[f"{prefix}C"] = [f"{prefix}LT", f"{prefix}RT", f"{other}C"]
            candidates[f"{prefix}LB"] = [f"{prefix}C", f"{prefix}S"]
            candidates[f"{prefix}RB"] = [f"{prefix}C", f"{prefix}S"]
        return candidates


def build_max_gadget(*, bottom_weight: float = 1.0) -> MaxGadget:
    """Construct the reconstructed Figure 5 BBC-max gadget (n = 16, k = 1).

    Per sub-gadget ``gi``: the sink chain ``giLT -> giS -> giA -> giB2 ->
    giC`` is enforced by unique positive preferences; ``giRT`` couples into
    the other sub-gadget's ``LB`` bottom; the bottoms ``giLB``/``giRB`` carry
    the paper's max-switch weights (``bottom_weight`` on both the sink and
    the central); the central cares about its own sink and the other central.
    """
    nodes: List[NodeName] = [
        f"g{i}{suffix}" for i in range(2) for suffix in _SUBGADGET_SUFFIXES
    ]
    weights: Dict[Tuple[NodeName, NodeName], float] = {}
    budgets: Dict[NodeName, float] = {node: 1.0 for node in nodes}

    for i in range(2):
        prefix = f"g{i}"
        other = f"g{1 - i}"
        # Forced sink chain and cross-gadget coupling.
        weights[(f"{prefix}LT", f"{prefix}S")] = 1.0
        weights[(f"{prefix}S", f"{prefix}A")] = 1.0
        weights[(f"{prefix}A", f"{prefix}B2")] = 1.0
        weights[(f"{prefix}B2", f"{prefix}C")] = 1.0
        weights[(f"{prefix}RT", f"{other}LB")] = 1.0
        # Bottom max-switches (the paper's "a > 0" weights).
        for bottom in ("LB", "RB"):
            weights[(f"{prefix}{bottom}", f"{prefix}S")] = bottom_weight
            weights[(f"{prefix}{bottom}", f"{prefix}C")] = bottom_weight
        # Central: own sink plus the other central.
        weights[(f"{prefix}C", f"{prefix}S")] = 1.0
        weights[(f"{prefix}C", f"{other}C")] = 1.0

    game = BBCGame(
        nodes=nodes,
        weights=weights,
        budgets=budgets,
        default_weight=0.0,
        default_budget=1.0,
        objective=Objective.MAX,
    )
    return MaxGadget(game=game, bottom_weight=bottom_weight)


def equilibrium_search(gadget: MaxGadget, *, stop_at_first: bool = True) -> SearchSummary:
    """Search the restricted profile space of the gadget for pure equilibria."""
    return exhaustive_equilibrium_search(
        gadget.game,
        candidate_targets=gadget.candidate_targets(),
        stop_at_first=stop_at_first,
    )


def bottom_switch_distances(gadget: MaxGadget) -> Mapping[str, float]:
    """Measure the two branches of the paper's max-switch for node ``g0RB``.

    Returns the max distance achieved by linking to the central when the
    central points at ``g0LT`` (the paper predicts 3) and by linking to the
    sink (the paper predicts 4).
    """
    strategies: Dict[NodeName, FrozenSet[NodeName]] = {
        node: frozenset() for node in gadget.nodes
    }
    for i in range(2):
        prefix = f"g{i}"
        other = f"g{1 - i}"
        strategies[f"{prefix}LT"] = frozenset({f"{prefix}S"})
        strategies[f"{prefix}S"] = frozenset({f"{prefix}A"})
        strategies[f"{prefix}A"] = frozenset({f"{prefix}B2"})
        strategies[f"{prefix}B2"] = frozenset({f"{prefix}C"})
        strategies[f"{prefix}RT"] = frozenset({f"{other}LB"})
        strategies[f"{prefix}C"] = frozenset({f"{prefix}LT"})
        strategies[f"{prefix}LB"] = frozenset({f"{prefix}C"})
        strategies[f"{prefix}RB"] = frozenset({f"{prefix}C"})
    profile = StrategyProfile(strategies)
    via_central = gadget.game.node_cost(profile, "g0RB")
    via_sink = gadget.game.node_cost(profile.with_strategy("g0RB", {"g0S"}), "g0RB")
    return {"via_central": via_central, "via_sink": via_sink}
