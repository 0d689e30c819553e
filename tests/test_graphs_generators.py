"""Generators and structural properties."""

import pytest

from repro.graphs import (
    directed_cycle,
    from_adjacency,
    hop_distance_sum,
    hypercube,
    is_out_regular,
    reach_vector,
    total_hop_distance,
)


def test_directed_cycle_is_regular():
    cycle = directed_cycle(6)
    assert is_out_regular(cycle, 1)


def test_hypercube_structure():
    cube = hypercube(3)
    assert cube.number_of_nodes() == 8
    assert is_out_regular(cube, 3)
    assert cube.has_edge(0, 1) and cube.has_edge(0, 2) and cube.has_edge(0, 4)


def test_ring_with_tail_reach_structure():
    # A 6-ring 0..5 and a tail 6 -> 7 -> 8 that enters the ring at node 0.
    graph = directed_cycle(6)
    graph.add_edge(6, 7)
    graph.add_edge(7, 8)
    graph.add_edge(8, 0)
    reaches = reach_vector(graph)
    # The tail nodes reach everything on the ring; ring nodes cannot reach the tail.
    assert reaches[6] == 9
    assert reaches[0] == 6


def test_hop_distance_metrics_with_penalty():
    graph = from_adjacency({0: [1], 1: [2], 2: [], 3: []})
    assert hop_distance_sum(graph, 0, penalty=10) == 1 + 2 + 10
    assert total_hop_distance(graph, penalty=10) > 0


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        directed_cycle(0)
