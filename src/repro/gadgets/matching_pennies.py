"""The Theorem 1 / Figure 1 gadget: a non-uniform BBC game with no pure NE.

The gadget encodes a matching-pennies interaction between the two *central*
nodes ``0C`` and ``1C``.  Each sub-gadget ``i`` has a central node, two top
nodes (``iLT``, ``iRT``) and two bottom nodes (``iLB``, ``iRB``); there is
one extra escape node ``X``.  We reproduce the *uniform-length* variant of
the proof (all link lengths and link costs are 1, budgets are 1, only the
preference weights are non-uniform), whose preference constraints the paper
states explicitly:

* every top node cares about exactly one bottom node of the *other*
  sub-gadget, so its unique best response is the direct link (the coupling
  between the two sub-gadgets);
* the central node ``iC`` cares about its own top nodes with weight ``zeta``
  and about the other central with weight ``xi < zeta``, which makes it pick
  whichever top currently provides a path to the other central;
* each bottom node cares about ``X`` (weight ``alpha``), its own central
  (``beta``) and its *cross-over* top node (``gamma``), with
  ``alpha > beta``, ``alpha > gamma`` and
  ``alpha (M-1) < beta (M-1) + gamma (M-2)``; these are exactly the paper's
  three inequalities and they force the bottom node to link to its central
  when the central points at the cross-over top, and to ``X`` otherwise.

The arXiv source does not contain a machine-readable Figure 1, so the
*orientation* of the four top-to-bottom coupling links is a reconstruction:
we use ``0LT -> 1RB``, ``0RT -> 1LB``, ``1LT -> 0LB``, ``1RT -> 0RB``, which
realises the proof's deviation cycle exactly (up to relabelling of
left/right).  ``X`` is treated as a pure sink (budget 0), as the paper does
for sink-like nodes in the Theorem 2 reduction; a positive X budget can be
requested for experimentation.

Reproduction note
-----------------
With *fully* uniform link costs the text-reconstructible gadget admits an
unintended pure Nash equilibrium: the four bottom nodes can link directly to
their cross-over tops, closing one long cycle through both sub-gadgets that
reaches every node a bottom cares about, which stabilises the centrals (see
``tests/test_gadgets.py`` and ``tests/test_paper_claims.py``).  The default construction
therefore uses the one extra degree of non-uniformity the BBC model offers —
bottom nodes pay link cost 2 for any target other than their own central and
``X`` (so those links exceed their budget) — which restores the paper's
intended switch behaviour and makes the no-equilibrium property hold; the
fully uniform-cost variant is available via ``restrict_bottom_links=False``
for studying the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..core import (
    BBCGame,
    Objective,
    SearchSummary,
    StrategyProfile,
    best_response,
    exhaustive_equilibrium_search,
)
from ..core.errors import InvalidGameDefinition

NodeName = str

#: The eleven nodes of the basic gadget, in a fixed order.
GADGET_NODES: Tuple[NodeName, ...] = (
    "0C",
    "0LT",
    "0RT",
    "0LB",
    "0RB",
    "1C",
    "1LT",
    "1RT",
    "1LB",
    "1RB",
    "X",
)

#: Coupling links: each top node's unique positive-preference target.
TOP_TARGETS: Mapping[NodeName, NodeName] = {
    "0LT": "1RB",
    "0RT": "1LB",
    "1LT": "0LB",
    "1RT": "0RB",
}

#: Cross-over top node of each bottom node (same sub-gadget, opposite side).
CROSSOVER_OF: Mapping[NodeName, NodeName] = {
    "0LB": "0RT",
    "0RB": "0LT",
    "1LB": "1RT",
    "1RB": "1LT",
}

CENTRALS: Tuple[NodeName, NodeName] = ("0C", "1C")
TOPS: Tuple[NodeName, ...] = ("0LT", "0RT", "1LT", "1RT")
BOTTOMS: Tuple[NodeName, ...] = ("0LB", "0RB", "1LB", "1RB")


@dataclass(frozen=True)
class SwitchWeights:
    """The bottom-node preference weights ``alpha, beta, gamma`` of the proof."""

    alpha: float
    beta: float
    gamma: float

    def satisfies_inequalities(self, penalty: float) -> bool:
        """Return whether the paper's three switch inequalities hold.

        Kept for the tests: ``tests/test_gadgets.py`` checks with it that
        the weights :meth:`from_penalty` derives satisfy the paper's gadget
        conditions.
        """
        return (
            self.alpha > self.gamma
            and self.alpha > self.beta
            and self.alpha * (penalty - 1)
            < self.beta * (penalty - 1) + self.gamma * (penalty - 2)
        )

    @staticmethod
    def from_penalty(penalty: float, gamma: float = 1.0) -> "SwitchWeights":
        """Derive weights from ``M`` using the paper's recipe.

        The paper picks ``epsilon < gamma (M-2)/(M-1)``, ``beta = gamma +
        epsilon`` and ``alpha = beta + gamma (M-2)/(M-1) - epsilon``; we use
        ``epsilon`` equal to half its upper bound.
        """
        slack = gamma * (penalty - 2) / (penalty - 1)
        epsilon = slack / 2
        beta = gamma + epsilon
        alpha = beta + slack - epsilon
        return SwitchWeights(alpha=alpha, beta=beta, gamma=gamma)


@dataclass(frozen=True)
class MatchingPenniesGadget:
    """The constructed gadget game plus the metadata used by its verifiers."""

    game: BBCGame
    switch_weights: SwitchWeights
    zeta: float
    xi: float
    x_budget: float
    padding_nodes: Tuple[NodeName, ...]
    restricted: bool

    @property
    def nodes(self) -> Tuple[NodeName, ...]:
        """Return all node names, gadget nodes first."""
        return self.game.nodes

    def candidate_targets(self) -> Dict[NodeName, List[NodeName]]:
        """Return the per-node strategy restriction used by the exhaustive search.

        Each node is restricted to targets that carry positive preference
        weight for it, plus (for bottoms) the other bottom of its own
        sub-gadget and (for centrals) the escape node ``X`` — the only
        targets through which a best response can ever route, given that the
        remaining nodes' links are forced by unique positive preferences.
        The Nash test itself always considers *all* deviations.
        """
        candidates: Dict[NodeName, List[NodeName]] = {}
        if self.restricted:
            # Bottom nodes can only afford {own central, X}; centrals are
            # enumerated over *every* possible link, so together with the
            # forced tops and the budget-0 X the search is fully exhaustive.
            candidates["0C"] = [v for v in GADGET_NODES if v != "0C"]
            candidates["1C"] = [v for v in GADGET_NODES if v != "1C"]
            for bottom in BOTTOMS:
                candidates[bottom] = [f"{bottom[0]}C", "X"]
        else:
            candidates["0C"] = ["0LT", "0RT", "1C", "X"]
            candidates["1C"] = ["1LT", "1RT", "0C", "X"]
            for bottom in BOTTOMS:
                gadget = bottom[0]
                central = f"{gadget}C"
                sibling = [b for b in BOTTOMS if b[0] == gadget and b != bottom][0]
                candidates[bottom] = [central, "X", CROSSOVER_OF[bottom], sibling]
        for top, target in TOP_TARGETS.items():
            candidates[top] = [target]
        candidates["X"] = [] if self.x_budget <= 0 else list(GADGET_NODES[:-1])
        for padding in self.padding_nodes:
            candidates[padding] = []
        return candidates


def build_matching_pennies_gadget(
    *,
    num_padding: int = 0,
    x_budget: float = 0.0,
    zeta: float = 2.0,
    xi: float = 1.0,
    restrict_bottom_links: bool = True,
    disconnection_penalty: Optional[float] = None,
) -> MatchingPenniesGadget:
    """Construct the (uniform-length) Theorem 1 gadget.

    Parameters
    ----------
    num_padding:
        Extra isolated nodes appended to realise the "for any n >= 11" part
        of the theorem; they have zero budget and nobody cares about them.
    x_budget:
        Budget of the escape node ``X`` (0 in the canonical construction).
    zeta, xi:
        Central-node preference weights for its own tops (``zeta``) and the
        other central (``xi``); the proof needs ``0 < xi < zeta``.
    restrict_bottom_links:
        When ``True`` (default), bottom nodes pay link cost 2 for any target
        other than their own central and ``X``, which prices those links out
        of their unit budget; see the module docstring for why this is needed
        for the no-equilibrium property.
    """
    if not 0 < xi < zeta:
        raise InvalidGameDefinition("the construction requires 0 < xi < zeta")
    if num_padding < 0:
        raise InvalidGameDefinition("num_padding must be non-negative")

    padding = tuple(f"P{i}" for i in range(num_padding))
    nodes = GADGET_NODES + padding
    n = len(nodes)
    if disconnection_penalty is None:
        disconnection_penalty = 10.0 * n
    switch = SwitchWeights.from_penalty(disconnection_penalty)

    weights: Dict[Tuple[NodeName, NodeName], float] = {}
    budgets: Dict[NodeName, float] = {}
    link_costs: Dict[Tuple[NodeName, NodeName], float] = {}

    # Top nodes: a single positive preference on the coupled bottom node.
    for top, target in TOP_TARGETS.items():
        weights[(top, target)] = 1.0
        budgets[top] = 1.0

    # Central nodes: own tops with weight zeta, other central with weight xi.
    for index, central in enumerate(CENTRALS):
        gadget = central[0]
        other = CENTRALS[1 - index]
        weights[(central, f"{gadget}LT")] = zeta
        weights[(central, f"{gadget}RT")] = zeta
        weights[(central, other)] = xi
        budgets[central] = 1.0

    # Bottom nodes: X (alpha), own central (beta), cross-over top (gamma).
    for bottom in BOTTOMS:
        gadget = bottom[0]
        weights[(bottom, "X")] = switch.alpha
        weights[(bottom, f"{gadget}C")] = switch.beta
        weights[(bottom, CROSSOVER_OF[bottom])] = switch.gamma
        budgets[bottom] = 1.0
        if restrict_bottom_links:
            for target in nodes:
                if target not in (bottom, f"{gadget}C", "X"):
                    link_costs[(bottom, target)] = 2.0

    budgets["X"] = float(x_budget)
    for pad in padding:
        budgets[pad] = 0.0

    game = BBCGame(
        nodes=nodes,
        weights=weights,
        link_costs=link_costs,
        budgets=budgets,
        default_weight=0.0,
        default_link_cost=1.0,
        default_link_length=1.0,
        default_budget=1.0,
        disconnection_penalty=disconnection_penalty,
        objective=Objective.SUM,
    )
    return MatchingPenniesGadget(
        game=game,
        switch_weights=switch,
        zeta=zeta,
        xi=xi,
        x_budget=float(x_budget),
        padding_nodes=padding,
        restricted=restrict_bottom_links,
    )


def forced_profile(
    gadget: MatchingPenniesGadget, zero_top: NodeName, one_top: NodeName
) -> StrategyProfile:
    """Return the profile induced by fixing the two centrals' top choices.

    Top nodes play their unique positive-preference link; bottom nodes play
    the switch dictated by the proof (own central when the central points at
    their cross-over top, ``X`` otherwise); ``X`` and padding nodes buy
    nothing.
    """
    if zero_top not in ("0LT", "0RT") or one_top not in ("1LT", "1RT"):
        raise InvalidGameDefinition("central choices must be their own top nodes")
    strategies: Dict[NodeName, FrozenSet[NodeName]] = {
        node: frozenset() for node in gadget.nodes
    }
    strategies["0C"] = frozenset({zero_top})
    strategies["1C"] = frozenset({one_top})
    for top, target in TOP_TARGETS.items():
        strategies[top] = frozenset({target})
    central_choice = {"0": zero_top, "1": one_top}
    for bottom in BOTTOMS:
        gadget_id = bottom[0]
        if central_choice[gadget_id] == CROSSOVER_OF[bottom]:
            strategies[bottom] = frozenset({f"{gadget_id}C"})
        else:
            strategies[bottom] = frozenset({"X"})
    return StrategyProfile(strategies)


@dataclass(frozen=True)
class CaseAnalysisStep:
    """One configuration of the case analysis and the deviation it admits."""

    zero_top: NodeName
    one_top: NodeName
    bottoms_stable: bool
    tops_stable: bool
    deviating_central: Optional[NodeName]
    central_improvement: float


def verify_case_analysis(gadget: MatchingPenniesGadget) -> List[CaseAnalysisStep]:
    """Execute the proof's case analysis over the four central configurations.

    For each of the four (``0C`` top, ``1C`` top) combinations the induced
    profile is built, the forced nodes (tops and bottoms) are verified to be
    exactly best-responding, and the profitable central deviation predicted
    by the matching-pennies structure is measured.  Theorem 1 holds when
    every configuration admits a deviating central.
    """
    steps: List[CaseAnalysisStep] = []
    for zero_top in ("0LT", "0RT"):
        for one_top in ("1LT", "1RT"):
            profile = forced_profile(gadget, zero_top, one_top)
            # Let the bottom nodes settle: with the centrals and tops fixed,
            # iterate their best responses to a fixed point (the switch
            # behaviour described in the proof, adjusted for indirect paths).
            for _ in range(8):
                changed = False
                for bottom in BOTTOMS:
                    response = best_response(gadget.game, profile, bottom)
                    if response.improved:
                        profile = response.apply(profile)
                        changed = True
                if not changed:
                    break
            bottoms_stable = all(
                not best_response(gadget.game, profile, bottom).improved
                for bottom in BOTTOMS
            )
            tops_stable = all(
                not best_response(gadget.game, profile, top).improved for top in TOPS
            )
            deviator: Optional[NodeName] = None
            improvement = 0.0
            for central in CENTRALS:
                result = best_response(gadget.game, profile, central)
                if result.improved and result.regret > improvement:
                    deviator = central
                    improvement = result.regret
            steps.append(
                CaseAnalysisStep(
                    zero_top=zero_top,
                    one_top=one_top,
                    bottoms_stable=bottoms_stable,
                    tops_stable=tops_stable,
                    deviating_central=deviator,
                    central_improvement=improvement,
                )
            )
    return steps


def no_equilibrium_search(
    gadget: MatchingPenniesGadget, *, stop_at_first: bool = True
) -> SearchSummary:
    """Exhaustively search the restricted profile space for a pure NE.

    Profiles range over :meth:`MatchingPenniesGadget.candidate_targets`
    (documented there); the Nash check for every candidate profile considers
    all deviations, so any equilibrium found would be genuine.  Theorem 1
    predicts ``equilibria_found == 0``.
    """
    return exhaustive_equilibrium_search(
        gadget.game,
        candidate_targets=gadget.candidate_targets(),
        stop_at_first=stop_at_first,
    )
