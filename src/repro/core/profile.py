"""Strategy profiles: who buys which outgoing links.

A *strategy* for node ``u`` is the set of heads of the outgoing links it
purchases.  A *profile* assigns a strategy to every node and therefore fully
determines the formed network ``G(S)`` of the paper.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, Mapping, Tuple

from ..graphs import DiGraph
from .errors import InvalidProfile, InvalidStrategy

Node = Hashable
Strategy = FrozenSet[Node]
Fingerprint = Tuple[Tuple[Node, Tuple[Node, ...]], ...]


class StrategyProfile(Mapping[Node, Strategy]):
    """An immutable assignment of link-purchase strategies to nodes.

    The profile behaves like a read-only mapping ``{node: frozenset(targets)}``.
    Nodes with no purchased links map to the empty frozenset.
    """

    __slots__ = ("_strategies",)

    def __init__(self, strategies: Mapping[Node, Iterable[Node]]) -> None:
        normalised: Dict[Node, Strategy] = {}
        for node, targets in strategies.items():
            target_set = frozenset(targets)
            if node in target_set:
                raise InvalidStrategy(f"node {node!r} cannot buy a link to itself")
            normalised[node] = target_set
        self._strategies = normalised

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def empty(nodes: Iterable[Node]) -> "StrategyProfile":
        """Return the profile in which no node buys any link."""
        return StrategyProfile({node: frozenset() for node in nodes})

    def with_strategy(self, node: Node, targets: Iterable[Node]) -> "StrategyProfile":
        """Return a new profile in which ``node`` plays ``targets`` instead."""
        if node not in self._strategies:
            raise InvalidProfile(f"node {node!r} is not part of this profile")
        updated = dict(self._strategies)
        updated[node] = frozenset(targets)
        return StrategyProfile(updated)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def strategy(self, node: Node) -> Strategy:
        """Return the strategy of ``node`` (its set of purchased link heads)."""
        try:
            return self._strategies[node]
        except KeyError as exc:
            raise InvalidProfile(f"node {node!r} is not part of this profile") from exc

    def nodes(self) -> Tuple[Node, ...]:
        """Return the nodes covered by this profile."""
        return tuple(self._strategies)

    def out_degree(self, node: Node) -> int:
        """Return the number of links purchased by ``node``."""
        return len(self.strategy(node))

    def edges(self) -> Iterator[Tuple[Node, Node]]:
        """Iterate over all purchased links as ``(buyer, target)`` pairs."""
        for node, targets in self._strategies.items():
            for target in targets:
                yield (node, target)

    def number_of_edges(self) -> int:
        """Return the total number of purchased links."""
        return sum(len(targets) for targets in self._strategies.values())

    def graph(self) -> DiGraph:
        """Return the formed network ``G(S)`` as a :class:`DiGraph` (no attributes)."""
        graph = DiGraph()
        graph.add_nodes_from(self._strategies)
        for node, targets in self._strategies.items():
            for target in targets:
                graph.add_edge(node, target)
        return graph

    def adjacency(self) -> Dict[Node, Tuple[Node, ...]]:
        """Return a plain ``{node: (targets...)}`` snapshot (for fast BFS)."""
        return {node: tuple(targets) for node, targets in self._strategies.items()}

    def fingerprint(self) -> Fingerprint:
        """Return a canonical, hashable form of the profile.

        Used by the dynamics engine to detect loops in best-response walks.
        Nodes are ordered by ``repr`` so arbitrary hashable labels work.
        """
        return tuple(
            (node, tuple(sorted(targets, key=repr)))
            for node, targets in sorted(self._strategies.items(), key=lambda kv: repr(kv[0]))
        )

    def describe(self) -> str:
        """Return a compact multi-line description (one node per line)."""
        lines = []
        for node in sorted(self._strategies, key=repr):
            targets = ", ".join(str(t) for t in sorted(self._strategies[node], key=repr))
            lines.append(f"{node} -> [{targets}]")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Mapping protocol / dunders
    # ------------------------------------------------------------------ #
    def __getitem__(self, node: Node) -> Strategy:
        return self.strategy(node)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._strategies)

    def __len__(self) -> int:
        return len(self._strategies)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StrategyProfile):
            return NotImplemented
        return self._strategies == other._strategies

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StrategyProfile({self.number_of_edges()} links over {len(self)} nodes)"
