"""Structural graph properties used by the analysis layer.

These helpers compute quantities the paper reasons about directly: reach
vectors (Section 4.3), diameters and eccentricities (Lemma 7), degree
regularity (Section 4.2), and distance-sum profiles that feed the social-cost
metrics.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from .bfs import bfs_distances, reach
from .digraph import DiGraph

Node = Hashable


def reach_vector(graph: DiGraph) -> Dict[Node, int]:
    """Return the reach (number of reachable nodes, inclusive) of every node."""
    return {node: reach(graph, node) for node in graph.nodes()}


def hop_distance_sum(graph: DiGraph, source: Node, penalty: float) -> float:
    """Return the sum of hop distances from ``source`` to all other nodes.

    Unreachable nodes contribute ``penalty`` each, mirroring the game's
    disconnection penalty ``M``.
    """
    dist = bfs_distances(graph, source)
    n = graph.number_of_nodes()
    total = float(sum(dist.values()))
    missing = n - len(dist)
    return total + missing * penalty


def total_hop_distance(graph: DiGraph, penalty: float) -> float:
    """Return the sum over all ordered pairs of hop distances (with penalty)."""
    return sum(hop_distance_sum(graph, node, penalty) for node in graph.nodes())


def is_out_regular(graph: DiGraph, degree: Optional[int] = None) -> bool:
    """Return ``True`` if every node has the same out-degree (== ``degree`` if given)."""
    degrees = {graph.out_degree(node) for node in graph.nodes()}
    if not degrees:
        return True
    if len(degrees) != 1:
        return False
    return degree is None or degrees == {degree}
