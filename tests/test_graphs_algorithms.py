"""Shortest paths, SCC, and all-pairs helpers, cross-checked against networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    DiGraph,
    bfs_distances,
    condensation,
    diameter,
    dijkstra_distances,
    eccentricity,
    floyd_warshall,
    is_strongly_connected,
    random_digraph,
    reach,
    strongly_connected_components,
    directed_cycle,
    directed_path,
    from_adjacency,
)


def test_bfs_distances_simple_path():
    graph = directed_path(5)
    assert bfs_distances(graph, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    assert bfs_distances(graph, 4) == {4: 0}


def test_reach_counts_self():
    graph = from_adjacency({0: [1], 1: [], 2: []})
    assert reach(graph, 0) == 2
    assert reach(graph, 2) == 1


def test_dijkstra_respects_lengths():
    graph = from_adjacency({0: [1, 2], 1: [3], 2: [3], 3: []})
    graph.add_edge(0, 1, length=1)
    graph.add_edge(1, 3, length=1)
    graph.add_edge(0, 2, length=5)
    graph.add_edge(2, 3, length=1)
    dist = dijkstra_distances(graph, 0)
    assert dist == {0: 0, 1: 1, 2: 5, 3: 2}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 12), p=st.floats(0.05, 0.6))
def test_bfs_matches_networkx(seed, n, p):
    graph = random_digraph(n, p, seed=seed)
    oracle = graph.to_networkx()
    for source in graph.nodes():
        expected = nx.single_source_shortest_path_length(oracle, source)
        assert bfs_distances(graph, source) == dict(expected)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 10), p=st.floats(0.1, 0.6))
def test_scc_matches_networkx(seed, n, p):
    graph = random_digraph(n, p, seed=seed)
    ours = {frozenset(component) for component in strongly_connected_components(graph)}
    oracle = {frozenset(component) for component in nx.strongly_connected_components(graph.to_networkx())}
    assert ours == oracle


def test_is_strongly_connected_cycle_vs_path():
    assert is_strongly_connected(directed_cycle(6))
    assert not is_strongly_connected(directed_path(6))


def test_condensation_is_a_dag_with_expected_size():
    graph = from_adjacency({0: [1], 1: [0], 2: [3], 3: [2], 1: [0, 2]})
    dag, membership = condensation(graph)
    assert dag.number_of_nodes() == 2
    assert membership[0] == membership[1]
    assert membership[2] == membership[3]
    assert membership[0] != membership[2]


def test_floyd_warshall_matches_per_source_bfs():
    graph = random_digraph(9, 0.3, seed=7)
    dense = floyd_warshall(graph)
    for source in graph.nodes():
        assert dense[source] == pytest.approx(bfs_distances(graph, source))


def test_diameter_and_eccentricity():
    cycle = directed_cycle(7)
    assert eccentricity(cycle, 0) == 6
    assert diameter(cycle) == 6
    assert diameter(directed_path(4)) is None


def test_weighted_diameter_honours_custom_length_attribute():
    graph = DiGraph()
    graph.add_nodes_from(range(3))
    graph.add_edge(0, 1, miles=5)
    graph.add_edge(1, 2, miles=7)
    graph.add_edge(2, 0)  # no attribute: falls back to default_length
    # Custom attribute plumbed through (the old code always read "length",
    # silently weighting every edge at 1).
    assert eccentricity(graph, 0, weighted=True, length_attr="miles") == 12
    assert diameter(graph, weighted=True, length_attr="miles") == 12
    assert (
        diameter(graph, weighted=True, length_attr="miles", default_length=10) == 17
    )
    # The hop-count and default-attribute paths are unchanged.
    assert diameter(graph) == 2
    assert diameter(graph, weighted=True) == 2
