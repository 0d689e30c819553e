"""All-pairs shortest paths helpers.

The social-cost and diameter analyses repeatedly need distances between every
pair of nodes.  For hop-count (uniform) games we run one BFS per source; for
weighted games one Dijkstra per source.  A dense Floyd-Warshall variant is
also provided for cross-checking in tests.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from .bfs import bfs_distances
from .digraph import DiGraph
from .dijkstra import dijkstra_distances

Node = Hashable
DistanceMatrix = Dict[Node, Dict[Node, float]]


def all_pairs_weighted_distances(
    graph: DiGraph, length_attr: str = "length", default_length: float = 1
) -> DistanceMatrix:
    """Return weighted distances between all pairs of nodes."""
    return {
        node: dict(dijkstra_distances(graph, node, length_attr, default_length))
        for node in graph.nodes()
    }


def floyd_warshall(
    graph: DiGraph, length_attr: str = "length", default_length: float = 1
) -> DistanceMatrix:
    """Dense Floyd-Warshall all-pairs shortest paths.

    Quadratic memory in the number of nodes; intended for small graphs and for
    cross-checking the per-source routines in the test-suite.
    """
    nodes = list(graph.nodes())
    inf = float("inf")
    dist: DistanceMatrix = {u: {v: (0 if u == v else inf) for v in nodes} for u in nodes}
    for tail, head, data in graph.edges_with_data():
        length = data.get(length_attr, default_length)
        if length < dist[tail][head]:
            dist[tail][head] = length
    for mid in nodes:
        dist_mid = dist[mid]
        for left in nodes:
            through = dist[left][mid]
            if through == inf:
                continue
            dist_left = dist[left]
            for right in nodes:
                candidate = through + dist_mid[right]
                if candidate < dist_left[right]:
                    dist_left[right] = candidate
    # Drop unreachable entries so the output matches the per-source helpers.
    return {
        u: {v: d for v, d in row.items() if d != inf}
        for u, row in dist.items()
    }


def eccentricity(
    graph: DiGraph,
    source: Node,
    weighted: bool = False,
    length_attr: str = "length",
    default_length: float = 1,
) -> Optional[float]:
    """Return the eccentricity of ``source``: its maximum distance to any node.

    When ``weighted`` is true, edge lengths are read from ``length_attr``
    (falling back to ``default_length`` when absent), matching
    :func:`all_pairs_weighted_distances`.  Returns ``None`` when some node is
    unreachable from ``source``.
    """
    if weighted:
        dist = dijkstra_distances(graph, source, length_attr, default_length)
    else:
        dist = bfs_distances(graph, source)
    if len(dist) < graph.number_of_nodes():
        return None
    return max(dist.values()) if dist else 0


def diameter(
    graph: DiGraph,
    weighted: bool = False,
    length_attr: str = "length",
    default_length: float = 1,
) -> Optional[float]:
    """Return the directed diameter of ``graph``.

    ``length_attr`` / ``default_length`` select the edge lengths for the
    ``weighted`` variant, as in :func:`eccentricity`.  Returns ``None`` when
    the graph is not strongly connected (some pair has no connecting path).
    """
    worst: float = 0
    for node in graph.nodes():
        ecc = eccentricity(
            graph, node, weighted=weighted,
            length_attr=length_attr, default_length=default_length,
        )
        if ecc is None:
            return None
        worst = max(worst, ecc)
    return worst
