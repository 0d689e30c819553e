"""Breadth-first traversal and unit-length shortest paths.

Uniform BBC games use hop-count distances, so BFS is the work-horse of the
best-response engine; it is kept free of per-edge attribute lookups for speed.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable

from .digraph import DiGraph
from .errors import NodeNotFound

Node = Hashable


def bfs_distances(graph: DiGraph, source: Node) -> Dict[Node, int]:
    """Return hop-count distances from ``source`` to every reachable node.

    The returned mapping contains only reachable nodes; ``source`` maps to 0.
    """
    if not graph.has_node(source):
        raise NodeNotFound(source)
    dist: Dict[Node, int] = {source: 0}
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        base = dist[node]
        for nxt in graph.successors(node):
            if nxt not in dist:
                dist[nxt] = base + 1
                queue.append(nxt)
    return dist


def reach(graph: DiGraph, source: Node) -> int:
    """Return the *reach* of ``source``: the number of nodes it can reach.

    This matches the paper's definition in Section 4.3, which counts the node
    itself (an isolated node has reach 1).
    """
    return len(bfs_distances(graph, source))
