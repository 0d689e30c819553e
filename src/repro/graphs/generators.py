"""Deterministic graph generators used by examples, tests, and benchmarks.

All random generators take an explicit :class:`random.Random` instance or
seed so every experiment in the benchmark harness is reproducible.
"""

from __future__ import annotations

from ..rng import SeedLike, as_rng as _rng
from .digraph import DiGraph


def empty_graph(n: int) -> DiGraph:
    """Return a graph with nodes ``0..n-1`` and no edges."""
    graph = DiGraph()
    graph.add_nodes_from(range(n))
    return graph


def directed_cycle(n: int) -> DiGraph:
    """Return the directed cycle ``0 -> 1 -> ... -> n-1 -> 0``."""
    if n <= 0:
        raise ValueError("a cycle needs at least one node")
    graph = empty_graph(n)
    for node in range(n):
        graph.add_edge(node, (node + 1) % n)
    return graph


def directed_path(n: int) -> DiGraph:
    """Return the directed path ``0 -> 1 -> ... -> n-1``."""
    if n <= 0:
        raise ValueError("a path needs at least one node")
    graph = empty_graph(n)
    for node in range(n - 1):
        graph.add_edge(node, node + 1)
    return graph


def hypercube(dimension: int) -> DiGraph:
    """Return the directed ``dimension``-cube on ``2**dimension`` nodes.

    Every undirected hypercube edge is represented by a single outgoing edge
    per endpoint (i.e. both directions are present), which matches the Cayley
    graph of :math:`Z_2^d` with the standard generators.
    """
    if dimension < 0:
        raise ValueError("dimension must be non-negative")
    n = 1 << dimension
    graph = empty_graph(n)
    for node in range(n):
        for bit in range(dimension):
            graph.add_edge(node, node ^ (1 << bit))
    return graph


def random_digraph(n: int, edge_probability: float, seed: SeedLike = None) -> DiGraph:
    """Return an Erdos-Renyi style random digraph G(n, p)."""
    if not 0 <= edge_probability <= 1:
        raise ValueError("edge_probability must lie in [0, 1]")
    rng = _rng(seed)
    graph = empty_graph(n)
    for tail in range(n):
        for head in range(n):
            if tail != head and rng.random() < edge_probability:
                graph.add_edge(tail, head)
    return graph
