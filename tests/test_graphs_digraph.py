"""Unit tests for the core DiGraph container."""

import pytest

from repro.graphs import DiGraph, NodeNotFound, from_adjacency


def test_add_nodes_and_edges():
    graph = DiGraph()
    graph.add_edge("a", "b", length=2)
    graph.add_edge("b", "c")
    assert graph.has_node("a") and graph.has_node("c")
    assert graph.has_edge("a", "b")
    assert not graph.has_edge("b", "a")
    assert graph.number_of_nodes() == 3
    assert graph.number_of_edges() == 2
    assert dict(graph.successor_items("a")) == {"b": {"length": 2}}


def test_add_edge_updates_attributes():
    graph = DiGraph()
    graph.add_edge(1, 2, length=1)
    graph.add_edge(1, 2, length=7)
    assert list(graph.edges_with_data()) == [(1, 2, {"length": 7})]
    assert graph.number_of_edges() == 1


def test_successors_and_predecessors():
    graph = from_adjacency({0: [1, 2], 1: [2], 2: []})
    assert sorted(graph.successors(0)) == [1, 2]
    assert sorted(graph.predecessors(2)) == [0, 1]
    assert graph.out_degree(0) == 2


def test_missing_node_raises():
    graph = DiGraph()
    with pytest.raises(NodeNotFound):
        list(graph.successors("nope"))
    with pytest.raises(NodeNotFound):
        graph.out_degree("nope")


def test_copy_is_independent():
    graph = from_adjacency({0: [1], 1: []})
    clone = graph.copy()
    clone.add_edge(1, 0)
    assert not graph.has_edge(1, 0)
    assert clone.has_edge(1, 0)


def test_reverse_flips_edges():
    graph = from_adjacency({0: [1], 1: [2], 2: []})
    reverse = graph.reverse()
    assert reverse.has_edge(1, 0) and reverse.has_edge(2, 1)
    assert not reverse.has_edge(0, 1)


def test_subgraph_keeps_only_selected_nodes():
    graph = from_adjacency({0: [1, 2], 1: [2], 2: [0]})
    sub = graph.subgraph([0, 1])
    assert sub.number_of_nodes() == 2
    assert sub.has_edge(0, 1)
    assert not sub.has_node(2)


def test_equality_considers_edges_and_attributes():
    left = DiGraph()
    right = DiGraph()
    left.add_edge(0, 1, length=1)
    right.add_edge(0, 1, length=1)
    assert left == right
    right.add_edge(0, 1, length=3)
    assert left != right


def test_adjacency_snapshot():
    graph = from_adjacency({0: [1], 1: [0, 2], 2: []})
    snapshot = graph.adjacency()
    assert set(snapshot[1]) == {0, 2}
    assert snapshot[2] == ()
