"""Min-cost flow solver tests (the fractional-game substrate)."""

import networkx as nx
import pytest

from repro.graphs import FlowNetwork, InfeasibleFlow


def test_single_path_unit_flow():
    network = FlowNetwork()
    network.add_edge("s", "a", 1.0, 2.0)
    network.add_edge("a", "t", 1.0, 3.0)
    assert network.min_cost_unit_flow("s", "t") == pytest.approx(5.0)


def test_flow_prefers_cheaper_route():
    network = FlowNetwork()
    network.add_edge("s", "a", 1.0, 1.0)
    network.add_edge("a", "t", 1.0, 1.0)
    network.add_edge("s", "t", 1.0, 10.0)
    assert network.min_cost_unit_flow("s", "t") == pytest.approx(2.0)


def test_fractional_split_across_two_routes():
    network = FlowNetwork()
    network.add_edge("s", "a", 0.5, 1.0)
    network.add_edge("a", "t", 0.5, 1.0)
    network.add_edge("s", "t", 1.0, 10.0)
    cost, flows = network.min_cost_flow("s", "t", 1.0)
    # Half a unit takes the cheap two-hop route, the rest the expensive edge.
    assert cost == pytest.approx(0.5 * 2 + 0.5 * 10)


def test_infeasible_flow_raises():
    network = FlowNetwork()
    network.add_edge("s", "a", 0.3, 1.0)
    network.add_node("t")
    network.add_edge("a", "t", 0.3, 1.0)
    with pytest.raises(InfeasibleFlow):
        network.min_cost_flow("s", "t", 1.0)


def test_negative_cost_rejected():
    network = FlowNetwork()
    with pytest.raises(Exception):
        network.add_edge("s", "t", 1.0, -1.0)


def test_matches_networkx_on_random_instances():
    import random

    rng = random.Random(3)
    for _trial in range(5):
        n = 6
        edges = []
        for u in range(n):
            for v in range(n):
                if u != v and (u, v) != (0, n - 1) and rng.random() < 0.5:
                    edges.append((u, v, rng.randint(1, 2), rng.randint(1, 6)))
        edges.append((0, n - 1, 2, 100))
        network = FlowNetwork()
        oracle = nx.DiGraph()
        for u, v, cap, cost in edges:
            network.add_edge(u, v, float(cap), float(cost))
            oracle.add_edge(u, v, capacity=cap, weight=cost)
        cost, _ = network.min_cost_flow(0, n - 1, 1.0)
        oracle.nodes[0]["demand"] = -1
        oracle.nodes[n - 1]["demand"] = 1
        flow = nx.min_cost_flow(oracle)
        expected_cost = sum(
            flow[u][v] * oracle[u][v]["weight"] for u in flow for v in flow[u]
        )
        assert cost == pytest.approx(expected_cost, rel=1e-6)


def test_overflow_cost_matches_explicit_penalty_edge():
    def build(with_penalty):
        network = FlowNetwork()
        network.add_edge("s", "a", 0.4, 1.0)
        network.add_edge("a", "t", 0.4, 2.0)
        network.add_edge("s", "b", 0.3, 5.0)
        network.add_edge("b", "t", 0.3, 1.0)
        if with_penalty:
            network.add_edge("s", "t", 1.0, 50.0)
        return network

    explicit_cost, _ = build(True).min_cost_flow("s", "t", 1.0)
    overflow_cost, _ = build(False).min_cost_flow("s", "t", 1.0, overflow_cost=50.0)
    assert overflow_cost == pytest.approx(explicit_cost, abs=1e-12)
    # 0.4 units at 3, 0.3 units at 6, the remaining 0.3 absorbed at 50.
    assert overflow_cost == pytest.approx(0.4 * 3 + 0.3 * 6 + 0.3 * 50)


def test_overflow_cost_caps_expensive_paths():
    network = FlowNetwork()
    network.add_edge("s", "a", 1.0, 9.0)
    network.add_edge("a", "t", 1.0, 9.0)
    # The only real path costs 18 > 10, so the whole unit overflows.
    cost, _ = network.min_cost_flow("s", "t", 1.0, overflow_cost=10.0)
    assert cost == pytest.approx(10.0)


def test_truncate_rolls_back_scratch_edges():
    network = FlowNetwork()
    network.add_node("s")
    network.add_node("m")
    network.add_node("t")
    network.add_edge("m", "t", 1.0, 1.0)
    mark = network.arc_count()
    network.add_edge("s", "m", 1.0, 1.0)
    cost, _ = network.min_cost_flow("s", "t", 1.0)
    assert cost == pytest.approx(2.0)
    network.truncate(mark)
    with pytest.raises(InfeasibleFlow):
        network.min_cost_flow("s", "t", 1.0)
    # The rollback leaves the network reusable: add the edge again.
    network.add_edge("s", "m", 1.0, 0.5)
    cost, _ = network.min_cost_flow("s", "t", 1.0)
    assert cost == pytest.approx(1.5)


def test_truncate_rejects_bad_marks():
    network = FlowNetwork()
    network.add_edge("s", "t", 1.0, 1.0)
    with pytest.raises(ValueError):
        network.truncate(1)
    with pytest.raises(ValueError):
        network.truncate(4)
