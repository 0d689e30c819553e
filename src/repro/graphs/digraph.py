"""A small, dependency-free directed multigraph-free digraph.

The BBC game engine only needs a simple directed graph with optional edge
attributes (length, capacity).  We implement it from scratch instead of
pulling in :mod:`networkx` so that the hot loops of the game engine (repeated
single-source shortest paths during best-response computation) stay cheap and
predictable; networkx is only used in the test-suite as an oracle.

Nodes can be arbitrary hashable objects.  Edges carry a dictionary of
attributes; the shortest-path helpers read the ``"length"`` attribute and the
flow solver reads ``"capacity"`` and ``"length"``.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, Mapping, Optional, Tuple

from .errors import NodeNotFound

Node = Hashable
Edge = Tuple[Node, Node]


class DiGraph:
    """A mutable directed graph with edge attributes.

    The class intentionally mirrors a small slice of the networkx API
    (``add_node``, ``add_edge``, ``successors`` ...) so readers familiar with
    networkx can follow the code, but it stores adjacency in plain dicts and
    performs no validation magic.
    """

    __slots__ = ("_succ", "_pred")

    def __init__(self, edges: Optional[Iterable[Edge]] = None) -> None:
        self._succ: Dict[Node, Dict[Node, Dict[str, Any]]] = {}
        self._pred: Dict[Node, Dict[Node, Dict[str, Any]]] = {}
        if edges is not None:
            for tail, head in edges:
                self.add_edge(tail, head)

    # ------------------------------------------------------------------ #
    # Node operations
    # ------------------------------------------------------------------ #
    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph (a no-op if it is already present)."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_nodes_from(self, nodes: Iterable[Node]) -> None:
        """Add every node of ``nodes`` to the graph."""
        for node in nodes:
            self.add_node(node)

    def has_node(self, node: Node) -> bool:
        """Return ``True`` if ``node`` is in the graph."""
        return node in self._succ

    def nodes(self) -> Iterator[Node]:
        """Iterate over the nodes of the graph."""
        return iter(self._succ)

    def number_of_nodes(self) -> int:
        """Return the number of nodes."""
        return len(self._succ)

    # ------------------------------------------------------------------ #
    # Edge operations
    # ------------------------------------------------------------------ #
    def add_edge(self, tail: Node, head: Node, **attrs: Any) -> None:
        """Add the directed edge ``tail -> head``.

        Missing endpoints are added automatically.  If the edge already
        exists its attribute dictionary is updated with ``attrs``.
        """
        self.add_node(tail)
        self.add_node(head)
        data = self._succ[tail].get(head)
        if data is None:
            data = {}
            self._succ[tail][head] = data
            self._pred[head][tail] = data
        data.update(attrs)

    def has_edge(self, tail: Node, head: Node) -> bool:
        """Return ``True`` if ``tail -> head`` is an edge of the graph."""
        return tail in self._succ and head in self._succ[tail]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges as ``(tail, head)`` pairs."""
        for tail, heads in self._succ.items():
            for head in heads:
                yield (tail, head)

    def edges_with_data(self) -> Iterator[Tuple[Node, Node, Mapping[str, Any]]]:
        """Iterate over all edges as ``(tail, head, attrs)`` triples."""
        for tail, heads in self._succ.items():
            for head, data in heads.items():
                yield (tail, head, data)

    def number_of_edges(self) -> int:
        """Return the number of edges."""
        return sum(len(heads) for heads in self._succ.values())

    # ------------------------------------------------------------------ #
    # Adjacency
    # ------------------------------------------------------------------ #
    def successors(self, node: Node) -> Iterator[Node]:
        """Iterate over the heads of edges leaving ``node``."""
        if node not in self._succ:
            raise NodeNotFound(node)
        return iter(self._succ[node])

    def predecessors(self, node: Node) -> Iterator[Node]:
        """Iterate over the tails of edges entering ``node``."""
        if node not in self._pred:
            raise NodeNotFound(node)
        return iter(self._pred[node])

    def successor_items(self, node: Node) -> Iterator[Tuple[Node, Mapping[str, Any]]]:
        """Iterate over ``(head, attrs)`` pairs for edges leaving ``node``."""
        if node not in self._succ:
            raise NodeNotFound(node)
        return iter(self._succ[node].items())

    def out_degree(self, node: Node) -> int:
        """Return the number of edges leaving ``node``."""
        if node not in self._succ:
            raise NodeNotFound(node)
        return len(self._succ[node])

    # ------------------------------------------------------------------ #
    # Whole-graph helpers
    # ------------------------------------------------------------------ #
    def copy(self) -> "DiGraph":
        """Return a deep-ish copy (attribute dicts are copied, values shared)."""
        clone = DiGraph()
        for node in self._succ:
            clone.add_node(node)
        for tail, head, data in self.edges_with_data():
            clone.add_edge(tail, head, **dict(data))
        return clone

    def reverse(self) -> "DiGraph":
        """Return a new graph with every edge direction flipped."""
        rev = DiGraph()
        for node in self._succ:
            rev.add_node(node)
        for tail, head, data in self.edges_with_data():
            rev.add_edge(head, tail, **dict(data))
        return rev

    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        """Return the induced subgraph on ``nodes``."""
        keep = set(nodes)
        missing = keep - set(self._succ)
        if missing:
            raise NodeNotFound(next(iter(missing)))
        sub = DiGraph()
        for node in keep:
            sub.add_node(node)
        for tail, head, data in self.edges_with_data():
            if tail in keep and head in keep:
                sub.add_edge(tail, head, **dict(data))
        return sub

    def adjacency(self) -> Dict[Node, Tuple[Node, ...]]:
        """Return a plain ``{node: (successors...)}`` snapshot of the graph."""
        return {node: tuple(heads) for node, heads in self._succ.items()}

    def to_networkx(self):  # pragma: no cover - thin convenience wrapper
        """Return an equivalent :class:`networkx.DiGraph`.

        Kept for the tests: it builds the networkx oracle that
        ``tests/test_graphs_algorithms.py`` checks SCCs and paths against.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes())
        for tail, head, data in self.edges_with_data():
            graph.add_edge(tail, head, **dict(data))
        return graph

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        if set(self._succ) != set(other._succ):
            return False
        for tail, heads in self._succ.items():
            other_heads = other._succ[tail]
            if set(heads) != set(other_heads):
                return False
            for head, data in heads.items():
                if dict(data) != dict(other_heads[head]):
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiGraph(nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()})"
        )


def from_adjacency(adjacency: Mapping[Node, Iterable[Node]]) -> DiGraph:
    """Build a :class:`DiGraph` from a ``{node: successors}`` mapping."""
    graph = DiGraph()
    for node in adjacency:
        graph.add_node(node)
    for tail, heads in adjacency.items():
        for head in heads:
            graph.add_edge(tail, head)
    return graph
