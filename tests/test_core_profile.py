"""StrategyProfile behaviour."""

import pytest

from repro.core import InvalidProfile, InvalidStrategy, StrategyProfile
from repro.graphs import DiGraph


def test_profile_mapping_interface():
    profile = StrategyProfile({0: {1, 2}, 1: {2}, 2: set()})
    assert profile[0] == frozenset({1, 2})
    assert profile.out_degree(0) == 2
    assert len(profile) == 3
    assert profile.number_of_edges() == 3
    assert set(profile.edges()) == {(0, 1), (0, 2), (1, 2)}
    assert StrategyProfile.empty([0, 1])[0] == frozenset()


def test_profile_rejects_self_links():
    with pytest.raises(InvalidStrategy):
        StrategyProfile({0: {0}})


def test_with_strategy_is_immutable_update():
    profile = StrategyProfile({0: {1}, 1: set()})
    updated = profile.with_strategy(1, {0})
    assert profile[1] == frozenset()
    assert updated[1] == frozenset({0})
    with pytest.raises(InvalidProfile):
        profile.with_strategy(7, {0})


def test_graph_and_from_graph_roundtrip():
    profile = StrategyProfile({0: {1}, 1: {2}, 2: {0}})
    graph = profile.graph()
    assert isinstance(graph, DiGraph)
    assert StrategyProfile({u: graph.successors(u) for u in graph.nodes()}) == profile


def test_fingerprint_equality_and_hash():
    left = StrategyProfile({0: {1, 2}, 1: set(), 2: {0}})
    right = StrategyProfile({2: {0}, 1: set(), 0: {2, 1}})
    assert left == right
    assert hash(left) == hash(right)
    assert left.fingerprint() == right.fingerprint()
    different = left.with_strategy(1, {0})
    assert different != left


def test_describe_contains_all_nodes():
    profile = StrategyProfile({"a": {"b"}, "b": set()})
    text = profile.describe()
    assert "a -> [b]" in text and "b -> []" in text
