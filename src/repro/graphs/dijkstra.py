"""Dijkstra single-source shortest paths for non-negative edge lengths.

Non-uniform BBC games attach an integer length to every link, so weighted
shortest paths are needed whenever link lengths differ.  The implementation
is a standard binary-heap Dijkstra with lazy deletion.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Tuple

from .digraph import DiGraph
from .errors import NegativeEdgeLength, NodeNotFound

Node = Hashable
_Number = float


def dijkstra_distances(
    graph: DiGraph, source: Node, length_attr: str = "length", default_length: _Number = 1
) -> Dict[Node, _Number]:
    """Return shortest-path distances from ``source`` using edge lengths.

    Edge lengths are read from ``length_attr`` (defaulting to
    ``default_length`` when absent).  Unreachable nodes are omitted from the
    result.  Negative lengths raise :class:`NegativeEdgeLength`.
    """
    if not graph.has_node(source):
        raise NodeNotFound(source)
    dist: Dict[Node, _Number] = {}
    heap: List[Tuple[_Number, int, Node]] = [(0, 0, source)]
    counter = 0
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for nxt, data in graph.successor_items(node):
            if nxt in dist:
                continue
            length = data.get(length_attr, default_length)
            if length < 0:
                raise NegativeEdgeLength(node, nxt, length)
            counter += 1
            heapq.heappush(heap, (d + length, counter, nxt))
    return dist
