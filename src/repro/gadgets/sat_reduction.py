"""The Theorem 2 / Figure 2 reduction: 3-SAT to pure-NE existence in BBC games.

Given a 3-CNF formula with ``n`` variables and ``m`` clauses the reduction
builds a non-uniform BBC game with

* a *variable* node ``X_i`` and two zero-budget *truth* nodes ``X_iT`` /
  ``X_iF`` per variable (``X_i`` equally prefers both truth nodes and can
  afford exactly one link, so its link choice *is* the truth assignment);
* an *intermediate* node ``I_{j,k}`` per literal, which prefers its variable
  node and the truth node matching the literal's sign;
* a *clause* node ``K_j`` that prefers (weight 2) the truth nodes that would
  satisfy it, plus the hub ``S`` (weight 1);
* a hub ``S`` with budget ``m`` that prefers every clause node, a zero-budget
  sink ``T``, and a copy of the Theorem 1 matching-pennies gadget whose
  central nodes additionally prefer the other central (weight ``2m - 1``) and
  every intermediate node (weight 2), and whose bottom nodes prefer their
  cross-over top (3), ``S`` (2), and ``T`` (1).

Links drawn in the paper's Figure 2 have length 1 and every other link has a
large length ``L``; the disconnection penalty is ``M = n_total * L``.  The
figure itself is not machine-readable, so the set of unit-length links is a
documented reconstruction: clause->intermediate, intermediate->variable,
variable->truth, S->clause, clause->S, central->S, plus the Figure 1 gadget
links (central->top, top->cross bottom, bottom->central/S/T).

The intended correspondence is: the game has a pure Nash equilibrium iff the
formula is satisfiable.  The forward direction is exercised by
:func:`canonical_profile` + an exact equilibrium report (the Figure 2 claim
table, asserted by ``tests/test_paper_claims.py``); the reverse direction
can be probed by :func:`restricted_equilibrium_search` on small formulas,
which no check runs yet.
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
    equilibrium_report,
    exhaustive_equilibrium_search,
)
from ..core.errors import InvalidGameDefinition
from ..sat import Assignment, CNFFormula

NodeName = str

_GADGET_CENTRALS = ("g0C", "g1C")
_GADGET_TOPS = ("g0LT", "g0RT", "g1LT", "g1RT")
_GADGET_BOTTOMS = ("g0LB", "g0RB", "g1LB", "g1RB")
_GADGET_TOP_TARGETS = {"g0LT": "g1RB", "g0RT": "g1LB", "g1LT": "g0LB", "g1RT": "g0RB"}
_GADGET_CROSSOVER = {"g0LB": "g0RT", "g0RB": "g0LT", "g1LB": "g1RT", "g1RB": "g1LT"}


@dataclass(frozen=True)
class SatReductionInstance:
    """The BBC game produced from a 3-CNF formula, with name lookup tables."""

    formula: CNFFormula
    game: BBCGame
    variable_nodes: Tuple[NodeName, ...]
    truth_nodes: Mapping[NodeName, Tuple[NodeName, NodeName]]
    clause_nodes: Tuple[NodeName, ...]
    intermediate_nodes: Mapping[NodeName, Tuple[NodeName, ...]]
    literal_of_intermediate: Mapping[NodeName, int]
    hub: NodeName
    sink: NodeName
    unit_length: float
    long_length: float

    @property
    def num_nodes(self) -> int:
        """Return the size of the constructed game."""
        return self.game.num_nodes


def variable_node(index: int) -> NodeName:
    """Return the node name of variable ``index`` (1-based, DIMACS style)."""
    return f"X{index}"


def truth_node(index: int, value: bool) -> NodeName:
    """Return the node name of the true/false truth node of a variable."""
    return f"X{index}{'T' if value else 'F'}"


def clause_node(index: int) -> NodeName:
    """Return the node name of clause ``index`` (0-based)."""
    return f"K{index}"


def intermediate_node(clause_index: int, position: int) -> NodeName:
    """Return the node name of the ``position``-th literal of a clause."""
    return f"I{clause_index}_{position}"


def build_sat_reduction(formula: CNFFormula, *, long_length: float = 25.0) -> SatReductionInstance:
    """Construct the Theorem 2 BBC game for ``formula``.

    ``long_length`` is the length ``L`` of links not drawn in Figure 2; the
    disconnection penalty is set to ``n_total * L`` as in the paper.
    """
    if formula.num_clauses == 0:
        raise InvalidGameDefinition("the reduction needs at least one clause")
    if not formula.is_3cnf():
        raise InvalidGameDefinition("the reduction is defined for 3-CNF formulas")

    m = formula.num_clauses
    nodes: List[NodeName] = []
    weights: Dict[Tuple[NodeName, NodeName], float] = {}
    budgets: Dict[NodeName, float] = {}
    unit_links: List[Tuple[NodeName, NodeName]] = []

    variable_nodes = []
    truth_lookup: Dict[NodeName, Tuple[NodeName, NodeName]] = {}
    for index in range(1, formula.num_variables + 1):
        var = variable_node(index)
        pos = truth_node(index, True)
        neg = truth_node(index, False)
        nodes.extend([var, pos, neg])
        variable_nodes.append(var)
        truth_lookup[var] = (pos, neg)
        weights[(var, pos)] = 1.0
        weights[(var, neg)] = 1.0
        budgets[var] = 1.0
        budgets[pos] = 0.0
        budgets[neg] = 0.0
        unit_links.append((var, pos))
        unit_links.append((var, neg))

    clause_nodes = []
    intermediates: Dict[NodeName, Tuple[NodeName, ...]] = {}
    literal_of: Dict[NodeName, int] = {}
    for clause_index, clause in enumerate(formula.clauses):
        knode = clause_node(clause_index)
        nodes.append(knode)
        clause_nodes.append(knode)
        budgets[knode] = 1.0
        weights[(knode, "S")] = 1.0
        unit_links.append((knode, "S"))
        members: List[NodeName] = []
        for position, literal in enumerate(clause):
            inode = intermediate_node(clause_index, position)
            nodes.append(inode)
            members.append(inode)
            literal_of[inode] = literal
            budgets[inode] = 1.0
            var = variable_node(abs(literal))
            target_truth = truth_node(abs(literal), literal > 0)
            weights[(inode, var)] = 1.0
            weights[(inode, target_truth)] = 1.0
            unit_links.append((inode, var))
            weights[(knode, target_truth)] = 2.0
            unit_links.append((knode, inode))
        intermediates[knode] = tuple(members)

    hub = "S"
    sink = "T"
    nodes.extend([hub, sink])
    budgets[hub] = float(m)
    budgets[sink] = 0.0
    for knode in clause_nodes:
        weights[(hub, knode)] = 1.0
        unit_links.append((hub, knode))

    # --- the embedded Figure 1 gadget ---------------------------------- #
    gadget_nodes = list(_GADGET_CENTRALS) + list(_GADGET_TOPS) + list(_GADGET_BOTTOMS)
    nodes.extend(gadget_nodes)
    for top, target in _GADGET_TOP_TARGETS.items():
        weights[(top, target)] = 1.0
        budgets[top] = 1.0
        unit_links.append((top, target))
    all_intermediates = [i for members in intermediates.values() for i in members]
    for central_index, central in enumerate(_GADGET_CENTRALS):
        other = _GADGET_CENTRALS[1 - central_index]
        own = central[:2]
        weights[(central, other)] = 2.0 * m - 1.0
        for inode in all_intermediates:
            weights[(central, inode)] = 2.0
        weights[(central, hub)] = 0.0  # the hub is a route, not a goal
        budgets[central] = 1.0
        unit_links.append((central, f"{own}LT"))
        unit_links.append((central, f"{own}RT"))
        unit_links.append((central, hub))
    for bottom in _GADGET_BOTTOMS:
        own = bottom[:2]
        weights[(bottom, _GADGET_CROSSOVER[bottom])] = 3.0
        weights[(bottom, hub)] = 2.0
        weights[(bottom, sink)] = 1.0
        budgets[bottom] = 1.0
        unit_links.append((bottom, f"{own}C"))
        unit_links.append((bottom, hub))
        unit_links.append((bottom, sink))

    total_nodes = len(nodes)
    penalty = total_nodes * long_length
    lengths: Dict[Tuple[NodeName, NodeName], float] = {}
    unit_set = set(unit_links)
    for tail in nodes:
        for head in nodes:
            if tail != head and (tail, head) not in unit_set:
                lengths[(tail, head)] = long_length

    game = BBCGame(
        nodes=nodes,
        weights=weights,
        link_lengths=lengths,
        budgets=budgets,
        default_weight=0.0,
        default_link_cost=1.0,
        default_link_length=1.0,
        default_budget=1.0,
        disconnection_penalty=penalty,
        objective=Objective.SUM,
    )
    return SatReductionInstance(
        formula=formula,
        game=game,
        variable_nodes=tuple(variable_nodes),
        truth_nodes=truth_lookup,
        clause_nodes=tuple(clause_nodes),
        intermediate_nodes=intermediates,
        literal_of_intermediate=literal_of,
        hub=hub,
        sink=sink,
        unit_length=1.0,
        long_length=long_length,
    )


def canonical_profile(
    instance: SatReductionInstance, assignment: Assignment
) -> StrategyProfile:
    """Build the profile the proof derives from a satisfying assignment.

    Variable nodes link to the truth node selected by ``assignment``; every
    intermediate node links to its variable node; each clause node links to
    an intermediate whose literal is satisfied (falling back to ``S`` if none
    is — only possible when ``assignment`` does not satisfy the formula);
    ``S`` links to every clause node; gadget tops play their forced links,
    centrals link to ``S``; gadget bottom strategies are filled in by exact
    best response against the rest (their paper-described choice depends on
    figure details, so we let the engine decide).
    """
    strategies: Dict[NodeName, FrozenSet[NodeName]] = {
        node: frozenset() for node in instance.game.nodes
    }
    for index in range(1, instance.formula.num_variables + 1):
        var = variable_node(index)
        strategies[var] = frozenset({truth_node(index, bool(assignment.get(index, False)))})
    for clause_index, clause in enumerate(instance.formula.clauses):
        knode = clause_node(clause_index)
        chosen: Optional[NodeName] = None
        for position, literal in enumerate(clause):
            inode = intermediate_node(clause_index, position)
            strategies[inode] = frozenset({variable_node(abs(literal))})
            satisfied = assignment.get(abs(literal), False) == (literal > 0)
            if satisfied and chosen is None:
                chosen = inode
        strategies[knode] = frozenset({chosen if chosen is not None else instance.hub})
    strategies[instance.hub] = frozenset(instance.clause_nodes)
    for top, target in _GADGET_TOP_TARGETS.items():
        strategies[top] = frozenset({target})
    for central in _GADGET_CENTRALS:
        strategies[central] = frozenset({instance.hub})
    profile = StrategyProfile(strategies)
    # Let the bottom nodes settle on exact best responses (a few rounds).
    for _ in range(4):
        changed = False
        for bottom in _GADGET_BOTTOMS:
            response = best_response(instance.game, profile, bottom)
            if response.improved:
                profile = response.apply(profile)
                changed = True
        if not changed:
            break
    return profile


@dataclass(frozen=True)
class SatisfiableDirectionReport:
    """How well the canonical profile of a satisfiable formula verifies."""

    is_equilibrium: bool
    max_regret: float
    unstable_nodes: Tuple[NodeName, ...]
    clause_nodes_stable: bool
    variable_nodes_stable: bool
    hub_stable: bool


def satisfiable_direction_report(
    instance: SatReductionInstance, assignment: Assignment
) -> SatisfiableDirectionReport:
    """Verify the SAT -> equilibrium direction for one satisfying assignment."""
    profile = canonical_profile(instance, assignment)
    report = equilibrium_report(instance.game, profile)
    unstable = report.unstable_nodes
    return SatisfiableDirectionReport(
        is_equilibrium=report.is_equilibrium,
        max_regret=report.max_regret,
        unstable_nodes=unstable,
        clause_nodes_stable=all(node not in unstable for node in instance.clause_nodes),
        variable_nodes_stable=all(node not in unstable for node in instance.variable_nodes),
        hub_stable=instance.hub not in unstable,
    )


def reduction_candidate_targets(
    instance: SatReductionInstance,
) -> Dict[NodeName, List[NodeName]]:
    """Restricted per-node strategy sets for exhaustive equilibrium searches.

    Every node is limited to the targets of its unit-length (Figure 2) links,
    which are exactly the moves the reduction's argument reasons about; the
    Nash check itself still considers every deviation.
    """
    candidates: Dict[NodeName, List[NodeName]] = {}
    for index in range(1, instance.formula.num_variables + 1):
        var = variable_node(index)
        candidates[var] = [truth_node(index, True), truth_node(index, False)]
        candidates[truth_node(index, True)] = []
        candidates[truth_node(index, False)] = []
    for clause_index, clause in enumerate(instance.formula.clauses):
        knode = clause_node(clause_index)
        candidates[knode] = [
            intermediate_node(clause_index, position) for position in range(len(clause))
        ] + [instance.hub]
        for position, literal in enumerate(clause):
            inode = intermediate_node(clause_index, position)
            candidates[inode] = [variable_node(abs(literal))]
    candidates[instance.hub] = list(instance.clause_nodes)
    candidates[instance.sink] = []
    for top, target in _GADGET_TOP_TARGETS.items():
        candidates[top] = [target]
    for central in _GADGET_CENTRALS:
        own = central[:2]
        candidates[central] = [f"{own}LT", f"{own}RT", instance.hub]
    for bottom in _GADGET_BOTTOMS:
        own = bottom[:2]
        candidates[bottom] = [f"{own}C", instance.hub, instance.sink]
    return candidates


def restricted_equilibrium_search(
    instance: SatReductionInstance, *, stop_at_first: bool = True
) -> SearchSummary:
    """Search for pure equilibria over the Figure-2 candidate strategy sets.

    The hub ``S`` plays its full strategy (all clause nodes) rather than
    being enumerated over all ``C(m + ..., m)`` subsets, which is its unique
    useful budget-maximal move; everything else ranges over the candidates of
    :func:`reduction_candidate_targets`.
    """
    candidates = reduction_candidate_targets(instance)
    candidate_strategies = {instance.hub: [frozenset(instance.clause_nodes)]}
    restricted_targets = {
        node: targets for node, targets in candidates.items() if node != instance.hub
    }
    return exhaustive_equilibrium_search(
        instance.game,
        candidate_strategies=candidate_strategies,
        candidate_targets=restricted_targets,
        stop_at_first=stop_at_first,
    )
