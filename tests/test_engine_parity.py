"""Parity tests: the flat-array engine must agree *exactly* with the reference.

The :class:`~repro.engine.CostEngine` replaces the dict-based
:class:`~repro.core.best_response.DeviationOracle` and dict BFS/Dijkstra in
every hot path, so these tests assert bit-identical costs, regrets, chosen
strategies, and evaluation counts between the two implementations — on random
uniform and non-uniform games, disconnected profiles (the penalty path), and
MAX-objective games — plus direct kernel-vs-dict-traversal agreement and the
version-stamp invalidation contract.
"""

import ast
import inspect
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    BBCGame,
    Objective,
    StrategyProfile,
    UniformBBCGame,
    best_response,
    equilibrium_report,
    greedy_response,
    random_profile,
    single_swap_response,
)
from repro.core.best_response import DeviationOracle
from repro.dynamics import run_best_response_walk
from repro.engine import CostEngine, get_engine
from repro.graphs import (
    DiGraph,
    bfs_distances,
    bfs_hops_csr,
    build_csr,
    dijkstra_csr,
    dijkstra_distances,
    random_digraph,
    repair_dijkstra_csr,
    repair_hops_csr,
)
from repro.graphs.int_kernels import mask_repair_dijkstra, mask_repair_hops, reverse_csr


def random_weighted_game(seed, n=6, objective=Objective.SUM):
    """A non-uniform game with sparse weights and varied lengths/costs/budgets."""
    rng = random.Random(seed)
    weights, lengths, costs = {}, {}, {}
    for u in range(n):
        for v in range(n):
            if u != v:
                if rng.random() < 0.6:
                    weights[(u, v)] = float(rng.randint(1, 3))
                lengths[(u, v)] = float(rng.randint(1, 4))
                costs[(u, v)] = float(rng.choice([1, 1, 2]))
    budgets = {u: float(rng.randint(1, 3)) for u in range(n)}
    return BBCGame(
        nodes=range(n),
        weights=weights,
        link_lengths=lengths,
        link_costs=costs,
        budgets=budgets,
        default_weight=0.0,
        objective=objective,
    )


def assert_result_parity(reference, engine_result):
    assert engine_result.best_cost == reference.best_cost
    assert engine_result.current_cost == reference.current_cost
    assert engine_result.best_strategy == reference.best_strategy
    assert engine_result.evaluated == reference.evaluated
    assert engine_result.improved == reference.improved
    assert engine_result.regret == reference.regret


# --------------------------------------------------------------------- #
# Kernel-level parity
# --------------------------------------------------------------------- #
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_bfs_kernel_matches_dict_bfs(seed, n):
    graph = random_digraph(n, 0.3, seed=seed)
    rows = [sorted(graph.successors(u)) for u in range(n)]
    indptr, indices = build_csr(rows)
    for source in range(n):
        reference = bfs_distances(graph, source)
        flat = bfs_hops_csr(indptr, indices, n, source)
        assert {v: d for v, d in enumerate(flat) if d >= 0} == reference


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12), masked=st.integers(0, 11))
def test_masked_bfs_matches_bfs_on_deleted_node(seed, n, masked):
    masked %= n
    graph = random_digraph(n, 0.3, seed=seed)
    rows = [sorted(graph.successors(u)) for u in range(n)]
    indptr, indices = build_csr(rows)
    deleted = graph.subgraph(v for v in range(n) if v != masked)
    for source in range(n):
        if source == masked:
            continue
        reference = bfs_distances(deleted, source)
        flat = bfs_hops_csr(indptr, indices, n, source, forbidden=masked)
        assert {v: d for v, d in enumerate(flat) if d >= 0} == reference


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 10), masked=st.integers(0, 9))
def test_dijkstra_kernel_matches_dict_dijkstra(seed, n, masked):
    masked %= n
    rng = random.Random(seed)
    graph = DiGraph()
    graph.add_nodes_from(range(n))
    rows = [[] for _ in range(n)]
    lengths = []
    for u in range(n):
        for v in sorted(rng.sample(range(n), rng.randint(0, n - 1))):
            if u != v:
                length = float(rng.randint(0, 5))
                graph.add_edge(u, v, length=length)
                rows[u].append(v)
                lengths.append(length)
    indptr, indices = build_csr(rows)
    deleted = graph.subgraph(v for v in range(n) if v != masked)
    for source in range(n):
        reference = dijkstra_distances(graph, source)
        flat = dijkstra_csr(indptr, indices, lengths, n, source)
        assert {v: d for v, d in enumerate(flat) if d < math.inf} == reference
        if source != masked:
            reference_masked = dijkstra_distances(deleted, source)
            flat_masked = dijkstra_csr(indptr, indices, lengths, n, source, forbidden=masked)
            assert {
                v: d for v, d in enumerate(flat_masked) if d < math.inf
            } == reference_masked


# --------------------------------------------------------------------- #
# Incremental repair kernels vs fresh traversals
# --------------------------------------------------------------------- #
def _random_adjacency(rng, n):
    return [
        sorted(rng.sample([v for v in range(n) if v != u], rng.randint(0, n - 1)))
        for u in range(n)
    ]


def _csr_with_lengths(rows, length_rows):
    indptr, indices = build_csr(rows)
    lengths = []
    for u, row in enumerate(rows):
        lengths.extend(length_rows[u][v] for v in row)
    return indptr, indices, lengths


def _random_edit_sequence(rng, rows, steps):
    """Apply ``steps`` single-node out-row rewrites; return new rows + net edits."""
    n = len(rows)
    new_rows = [list(row) for row in rows]
    origin = {}
    for _ in range(steps):
        mover = rng.randrange(n)
        origin.setdefault(mover, frozenset(new_rows[mover]))
        others = [v for v in range(n) if v != mover]
        new_rows[mover] = sorted(rng.sample(others, rng.randint(0, n - 1)))
    edits = []
    for mover, old in origin.items():
        new = frozenset(new_rows[mover])
        if old != new:
            edits.append((mover, tuple(old - new), tuple(new - old)))
    return new_rows, edits


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 11), steps=st.integers(1, 4))
def test_repair_kernels_match_fresh_traversals(seed, n, steps):
    """Repaired rows are bit-identical to recomputing, masked or not."""
    rng = random.Random(seed)
    rows = _random_adjacency(rng, n)
    length_rows = [[float(rng.randint(0, 4)) for _ in range(n)] for _ in range(n)]
    indptr0, indices0, lengths0 = _csr_with_lengths(rows, length_rows)
    new_rows, edits = _random_edit_sequence(rng, rows, steps)
    indptr1, indices1, lengths1 = _csr_with_lengths(new_rows, length_rows)
    rev_indptr, rev_tails = reverse_csr(indptr1, indices1, n)
    for forbidden in (-1, rng.randrange(n)):
        for source in range(n):
            if source == forbidden:
                continue
            hops = bfs_hops_csr(indptr0, indices0, n, source, forbidden)
            repair_hops_csr(
                indptr1, indices1, hops, source, edits, rev_indptr, rev_tails, forbidden
            )
            assert hops == bfs_hops_csr(indptr1, indices1, n, source, forbidden)
            dist = dijkstra_csr(indptr0, indices0, lengths0, n, source, forbidden)
            repair_dijkstra_csr(
                indptr1, indices1, lengths1, dist, source, edits,
                rev_indptr, rev_tails, length_rows, forbidden,
            )
            assert dist == dijkstra_csr(indptr1, indices1, lengths1, n, source, forbidden)


#: Graph shapes the mask-repair draws cover besides plain random graphs.
MASK_SHAPES = [
    "random", "u-unreachable", "u-only-out-neighbour", "u-no-out-arcs",
    "source-no-out-arcs",
]


def _mask_repair_case(seed, n, shape):
    """A random graph (out-degree <= 3, lengths including zero) of ``shape``.

    Returns ``(indptr, indices, lengths, length_rows, rev_indptr, rev_tails,
    source, u)``, where ``shape`` places ``u`` relative to ``source``.
    """
    rng = random.Random(seed)
    rows = [
        sorted(rng.sample([v for v in range(n) if v != x], rng.randint(0, min(3, n - 1))))
        for x in range(n)
    ]
    source, u = rng.sample(range(n), 2)
    if shape == "u-unreachable":
        rows = [[v for v in row if v != u] for row in rows]
    elif shape == "u-only-out-neighbour":
        rows[source] = [u]
    elif shape == "u-no-out-arcs":
        rows[u] = []
    elif shape == "source-no-out-arcs":
        rows[source] = []
    length_rows = [[float(rng.choice([0, 0, 1, 2, 3, 5, 9])) for _ in range(n)] for _ in range(n)]
    indptr, indices, lengths = _csr_with_lengths(rows, length_rows)
    rev_indptr, rev_tails = reverse_csr(indptr, indices, n)
    return indptr, indices, lengths, length_rows, rev_indptr, rev_tails, source, u


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 40),
    shape=st.sampled_from(MASK_SHAPES),
)
def test_mask_repair_kernels_match_masked_traversals(seed, n, shape):
    """Deriving ``d_{G-u}(s, ·)`` in place on a copy of ``d_G(s, ·)`` equals
    the masked traversal element for element, and leaves the base row
    untouched; lengths include zero."""
    indptr, indices, lengths, length_rows, rev_indptr, rev_tails, source, u = (
        _mask_repair_case(seed, n, shape)
    )
    hops = bfs_hops_csr(indptr, indices, n, source)
    dist = dijkstra_csr(indptr, indices, lengths, n, source)
    for masked in [u] + [v for v in range(n) if v not in (source, u)]:
        derived_hops = list(hops)
        mask_repair_hops(
            indptr, indices, derived_hops, source, masked, rev_indptr, rev_tails
        )
        assert derived_hops == bfs_hops_csr(indptr, indices, n, source, forbidden=masked)
        derived_dist = list(dist)
        mask_repair_dijkstra(
            indptr, indices, lengths, derived_dist, source, masked,
            rev_indptr, rev_tails, length_rows,
        )
        assert derived_dist == dijkstra_csr(
            indptr, indices, lengths, n, source, forbidden=masked
        )
    assert hops == bfs_hops_csr(indptr, indices, n, source)
    assert dist == dijkstra_csr(indptr, indices, lengths, n, source)


def test_mask_repair_kernels_reject_the_source_as_mask():
    indptr, indices = build_csr([[1], [0]])
    rev_indptr, rev_tails = reverse_csr(indptr, indices, 2)
    with pytest.raises(ValueError, match="source"):
        mask_repair_hops(indptr, indices, [0, 1], 0, 0, rev_indptr, rev_tails)
    with pytest.raises(ValueError, match="source"):
        mask_repair_dijkstra(
            indptr, indices, [1.0, 1.0], [0.0, 1.0], 0, 0, rev_indptr, rev_tails,
            [[0.0, 1.0], [1.0, 0.0]],
        )


def _warm_all_env_rows(engine, game):
    index = engine.indexed.index
    for node in game.nodes:
        engine.env_rows(index[node], [index[hop] for hop in game.nodes if hop != node])


def _assert_rows_match_cold(engine, game, profile):
    cold = CostEngine(game)
    cold.sync(profile)
    n = engine.indexed.n
    for node in range(n):
        hops = [hop for hop in range(n) if hop != node]
        assert engine.env_rows(node, hops) == cold.env_rows(node, hops)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_incremental_repair_matches_recompute_across_edit_sequences(seed):
    """Randomized single-node edit sequences: repaired masked rows stay exact.

    Covers edge additions, removals, and swaps (random strategy rewrites of
    varying size) on uniform and weighted games, with the repair threshold
    raised so even long pending-edit spans go through the repair path.
    """
    rng = random.Random(seed)
    for game in (UniformBBCGame(9, 2), random_weighted_game(seed, n=7)):
        profile = random_profile(game, seed=seed)
        engine = CostEngine(game)
        engine._repair_edit_limit = 10**9  # force repair, never fall back
        engine.sync(profile)
        _warm_all_env_rows(engine, game)
        nodes = list(game.nodes)
        for _ in range(10):
            node = rng.choice(nodes)
            others = [v for v in nodes if v != node]
            strategy = frozenset(rng.sample(others, rng.randint(0, 2)))
            profile = profile.with_strategy(node, strategy)
            engine.sync(profile)
            if rng.random() < 0.5:
                # Touch only sometimes, so pending spans cover several edits.
                _assert_rows_match_cold(engine, game, profile)
        _assert_rows_match_cold(engine, game, profile)
        assert engine.stats["rows_repaired"] > 0


def test_repaired_walk_trace_is_bit_identical():
    """A long deviating walk produces the same trace however rows are kept."""
    from repro.experiments.workloads import random_initial_profile

    game = UniformBBCGame(10, 2)
    initial = random_initial_profile(game, seed=4)

    def run(engine):
        return run_best_response_walk(
            game, initial, max_rounds=25, record_steps=True, engine=engine
        )

    repair_engine = CostEngine(game)
    repair_engine._repair_edit_limit = 10**9
    repaired = run(repair_engine)
    # A negative edit limit declines every repair: stale rows drop and recompute.
    drop_engine = CostEngine(game)
    drop_engine._repair_edit_limit = -1
    dropped = run(drop_engine)
    reference = run(False)
    assert repair_engine.stats["rows_repaired"] > 0
    assert drop_engine.stats["rows_repaired"] == 0
    for other in (dropped, reference):
        assert repaired.final_profile == other.final_profile
        assert repaired.probes == other.probes
        assert repaired.deviations == other.deviations
        assert repaired.reached_equilibrium == other.reached_equilibrium
        assert [s.node for s in repaired.steps] == [s.node for s in other.steps]
        assert [s.new_cost for s in repaired.steps] == [s.new_cost for s in other.steps]
        assert [s.old_cost for s in repaired.steps] == [s.old_cost for s in other.steps]


def test_equilibrium_recheck_after_single_deviation_repairs_not_recomputes():
    game = UniformBBCGame(16, 2)
    profile = random_profile(game, seed=8)
    engine = CostEngine(game)
    equilibrium_report(game, profile, engine=engine)
    computed_before = engine.stats["rows_computed"]
    node = 3
    others = [v for v in game.nodes if v != node]
    deviated = profile.with_strategy(node, frozenset(others[:2]))
    report = equilibrium_report(game, deviated, engine=engine)
    # Every non-mover row is repaired in place; only the mover's own probes
    # may need fresh rows for first hops never seen before.
    assert engine.stats["rows_repaired"] > 0
    assert engine.stats["rows_computed"] == computed_before
    assert report.max_regret == equilibrium_report(game, deviated, engine=False).max_regret


# --------------------------------------------------------------------- #
# Engine vs DeviationOracle
# --------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5_000), n=st.integers(5, 9), k=st.integers(1, 3))
def test_best_response_parity_uniform(seed, n, k):
    if k >= n:
        k = n - 1
    game = UniformBBCGame(n, k)
    profile = random_profile(game, seed=seed)
    engine = CostEngine(game)
    for node in game.nodes:
        reference = best_response(game, profile, node, engine=False)
        routed = best_response(game, profile, node, engine=engine)
        assert_result_parity(reference, routed)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_best_response_parity_non_uniform(seed):
    game = random_weighted_game(seed)
    profile = random_profile(game, seed=seed)
    engine = CostEngine(game)
    for node in game.nodes:
        reference = best_response(game, profile, node, engine=False)
        routed = best_response(game, profile, node, engine=engine)
        assert_result_parity(reference, routed)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_best_response_parity_max_objective(seed):
    uniform = UniformBBCGame(7, 2, objective=Objective.MAX)
    weighted = random_weighted_game(seed, objective=Objective.MAX)
    for game in (uniform, weighted):
        profile = random_profile(game, seed=seed)
        engine = CostEngine(game)
        for node in game.nodes:
            reference = best_response(game, profile, node, engine=False)
            routed = best_response(game, profile, node, engine=engine)
            assert_result_parity(reference, routed)


def test_parity_on_disconnected_profile_penalty_path():
    for game in (UniformBBCGame(6, 2), UniformBBCGame(6, 2, objective=Objective.MAX)):
        profile = game.empty_profile()
        engine = CostEngine(game)
        engine.sync(profile)
        for node in game.nodes:
            oracle = DeviationOracle(game, profile, node)
            assert engine.cost_of(node, profile.strategy(node)) == oracle.cost_of(
                profile.strategy(node)
            )
            assert_result_parity(
                best_response(game, profile, node, engine=False),
                best_response(game, profile, node, engine=engine),
            )
        # Every node is disconnected from every target, so the current cost is
        # exactly (n - 1) * M under SUM and M under MAX.
        cost = engine.cost_of(0, frozenset())
        expected = game.disconnection_penalty * (
            (game.num_nodes - 1) if game.objective is Objective.SUM else 1
        )
        assert cost == expected


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_cost_of_matches_oracle_on_arbitrary_strategies(seed):
    rng = random.Random(seed)
    game = random_weighted_game(seed)
    profile = random_profile(game, seed=seed)
    engine = CostEngine(game)
    engine.sync(profile)
    for node in game.nodes:
        oracle = DeviationOracle(game, profile, node)
        others = [v for v in game.nodes if v != node]
        for _ in range(5):
            strategy = frozenset(rng.sample(others, rng.randint(0, len(others))))
            assert engine.cost_of(node, strategy) == oracle.cost_of(strategy)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_greedy_and_single_swap_parity(seed):
    game = random_weighted_game(seed)
    profile = random_profile(game, seed=seed)
    engine = CostEngine(game)
    for node in game.nodes:
        assert_result_parity(
            greedy_response(game, profile, node, engine=False),
            greedy_response(game, profile, node, engine=engine),
        )
        assert_result_parity(
            single_swap_response(game, profile, node, engine=False),
            single_swap_response(game, profile, node, engine=engine),
        )


def test_equilibrium_report_parity():
    game = UniformBBCGame(8, 2)
    profile = random_profile(game, seed=42)
    reference = equilibrium_report(game, profile, engine=False)
    routed = equilibrium_report(game, profile)
    assert routed.is_equilibrium == reference.is_equilibrium
    assert routed.max_regret == reference.max_regret
    for node in game.nodes:
        assert_result_parity(reference.responses[node], routed.responses[node])


def test_all_costs_and_social_cost_parity():
    for seed in (0, 1, 2):
        for game in (
            UniformBBCGame(7, 2),
            random_weighted_game(seed),
            random_weighted_game(seed, objective=Objective.MAX),
        ):
            profile = random_profile(game, seed=seed)
            assert game.all_costs(profile) == game.all_costs(profile, engine=False)
            assert game.social_cost(profile) == game.social_cost(profile, engine=False)
        # Disconnected profiles exercise the penalty substitution.
        game = UniformBBCGame(6, 2)
        empty = game.empty_profile()
        assert game.all_costs(empty) == game.all_costs(empty, engine=False)


def test_walk_parity_engine_vs_reference():
    game = UniformBBCGame(7, 2)
    from repro.experiments.workloads import random_initial_profile

    initial = random_initial_profile(game, seed=9)
    routed = run_best_response_walk(game, initial, max_rounds=20, record_steps=True)
    reference = run_best_response_walk(
        game, initial, max_rounds=20, record_steps=True, engine=False
    )
    assert routed.final_profile == reference.final_profile
    assert routed.probes == reference.probes
    assert routed.deviations == reference.deviations
    assert routed.reached_equilibrium == reference.reached_equilibrium
    assert [s.node for s in routed.steps] == [s.node for s in reference.steps]
    assert [s.new_cost for s in routed.steps] == [s.new_cost for s in reference.steps]


# --------------------------------------------------------------------- #
# Version-stamp invalidation contract
# --------------------------------------------------------------------- #
def test_sync_is_noop_for_identical_profile():
    game = UniformBBCGame(6, 2)
    profile = random_profile(game, seed=3)
    engine = CostEngine(game)
    engine.sync(profile)
    version = engine.version
    engine.sync(StrategyProfile({node: profile.strategy(node) for node in game.nodes}))
    assert engine.version == version


def test_single_node_change_preserves_that_nodes_rows():
    game = UniformBBCGame(6, 2)
    profile = random_profile(game, seed=3)
    engine = CostEngine(game)
    engine.sync(profile)
    node = 2
    # Warm node 2's environment rows, then change only node 2's strategy.
    engine.cost_of(node, profile.strategy(node))
    kept_rows = engine._env_cache[node][1]
    version = engine.version
    current = profile.strategy(node)
    replacement = frozenset({0, 1}) if current != frozenset({0, 1}) else frozenset({0, 3})
    deviated = profile.with_strategy(node, replacement)
    engine.sync(deviated)
    assert engine.version == version + 1
    assert engine._env_cache.get(node) == (engine.version, kept_rows)
    # The preserved rows must still be correct: compare against a cold engine.
    cold = CostEngine(game)
    cold.sync(deviated)
    for other in game.nodes:
        assert engine.cost_of(other, deviated.strategy(other)) == cold.cost_of(
            other, deviated.strategy(other)
        )


def test_multi_node_change_clears_caches_but_stays_correct():
    game = UniformBBCGame(6, 2)
    first = random_profile(game, seed=1)
    second = random_profile(game, seed=2)
    engine = CostEngine(game)
    engine.sync(first)
    for node in game.nodes:
        engine.cost_of(node, first.strategy(node))
    engine.sync(second)
    cold = CostEngine(game)
    for node in game.nodes:
        reference = best_response(game, second, node, engine=cold)
        assert_result_parity(reference, best_response(game, second, node, engine=engine))


def test_stale_scorer_refuses_to_run():
    game = UniformBBCGame(5, 2)
    profile = random_profile(game, seed=0)
    engine = CostEngine(game)
    engine.sync(profile)
    scorer = engine.scorer(0)
    engine.sync(profile.with_strategy(0, frozenset({1, 2})))
    from repro.core.errors import InvalidProfile

    with pytest.raises(InvalidProfile):
        scorer.score_ints([1, 2])


def test_equilibrium_check_after_converged_walk_recomputes_nothing():
    from repro.experiments import engine_reuse_study

    rows = engine_reuse_study(8, 2, max_rounds=40, seed=5)
    row = rows[0]
    if row["walk_converged"]:
        # The walk's final stable round probed every node against the final
        # profile; the equilibrium check probes the same nodes against the
        # same profile, so every environment row must come from cache.
        assert row["rows_computed_during_check"] == 0
        assert row["is_equilibrium"]
    assert row["rows_reused"] > 0
    assert row["full_syncs"] == 1  # only the initial profile load


def test_shared_engine_is_per_game_and_reused():
    game = UniformBBCGame(5, 2)
    assert get_engine(game) is get_engine(game)
    other = UniformBBCGame(5, 2)
    assert get_engine(game) is not get_engine(other)


def _cached_byte_total(engine):
    from repro.engine.cost_engine import _payload_nbytes

    return sum(
        _payload_nbytes(row)
        for _, rows in engine._env_cache.values()
        for row in rows.values()
    )


def test_env_row_cache_is_bounded_and_eviction_preserves_correctness():
    game = UniformBBCGame(8, 2)
    profile = random_profile(game, seed=6)
    engine = CostEngine(game)
    engine.sync(profile)
    # Force eviction: one node's probe alone wants several rows of 8 nodes'
    # worth of floats, so a few hundred bytes of budget churns constantly.
    engine.memory_budget_bytes = 600
    reference = CostEngine(game)
    for node in game.nodes:
        assert_result_parity(
            best_response(game, profile, node, engine=reference),
            best_response(game, profile, node, engine=engine),
        )
        # The budget, plus at most the exempt in-flight node's working set
        # (one 8-byte-per-entry hop row for each of 7 first hops).
        assert engine.cache_bytes() <= 600 + 7 * 8 * len(game.nodes)
    assert engine.stats["rows_evicted"] > 0
    assert engine.stats["chunks_evicted"] > 0
    # Re-probing an evicted node recomputes (never stale-patches) its rows.
    assert_result_parity(
        best_response(game, profile, 0, engine=reference),
        best_response(game, profile, 0, engine=engine),
    )
    assert engine.stats["evicted_recomputes"] > 0
    # Invariant: the ledger matches the caches' actual contents.
    assert engine.cache_bytes() == _cached_byte_total(engine)


def test_float_labels_do_not_take_the_int_fast_path():
    # [0.0, 1.0, 2.0] == (0, 1, 2) in Python, but floats cannot index the
    # engine's flat rows; the identity fast path must require real ints.
    game = BBCGame(nodes=[0.0, 1.0, 2.0], default_budget=1.0)
    profile = random_profile(game, seed=0)
    for node in game.nodes:
        assert_result_parity(
            best_response(game, profile, node, engine=False),
            best_response(game, profile, node),
        )


def _assert_snapshot_matches_game(indexed, game):
    # The snapshot's definition, spelled out per pair via the public game
    # API: however IndexedGame builds its rows, they must equal this.
    n = len(indexed.labels)
    lengths = [
        [game.link_length(source, target) for target in indexed.labels]
        for source in indexed.labels
    ]
    for u, source in enumerate(indexed.labels):
        assert indexed.length_rows[u] == lengths[u]
        weights = [game.weight(source, target) for target in indexed.labels]
        weights[u] = 0.0
        targets = [v for v, w in enumerate(weights) if v != u and w > 0]
        assert indexed.target_rows[u] == targets
        assert indexed.target_weight_rows[u] == [weights[v] for v in targets]
        assert indexed.unit_weight_nodes[u] == all(
            weights[v] == 1.0 for v in targets
        )
    values = {length for row in lengths for length in row}
    longest = max(values)
    integral = all(float(length).is_integer() for length in values)
    penalty = game.disconnection_penalty
    assert indexed.uniform_lengths == (len(values) == 1)
    assert indexed.unit_length == longest
    assert indexed.penalty_dominates == (penalty >= (n - 1) * longest)
    assert indexed.integral_lengths == (integral and (n - 1) * longest <= 2.0**53)
    assert indexed.exact_sums == (
        float(penalty).is_integer()
        and n * max(penalty, (n - 1) * longest) <= 2.0**53
        and integral
    )


@st.composite
def _sparse_games(draw):
    n = draw(st.integers(1, 7))
    labels = draw(
        st.sampled_from(
            [
                list(range(n)),
                random.Random(n).sample(range(10, 10 + 3 * n), n),
                [f"node-{i}" for i in reversed(range(n))],
            ]
        )
    )
    default_weight = draw(st.sampled_from([0.0, 1.0, 2.5]))
    default_length = draw(st.sampled_from([1.0, 2.0, 1.5]))
    pairs = [(s, t) for s in labels for t in labels if s != t]
    weight_values = st.sampled_from([0.0, 1.0, 2.5, 3, default_weight])
    length_values = st.sampled_from([1.0, 2.0, 0.5, 3.25, 4, default_length])

    def sparse(values):
        # A game with one node has no pairs to draw from.
        return draw(st.dictionaries(st.sampled_from(pairs), values, max_size=12)) if pairs else {}

    if draw(st.booleans()):
        # A dense table that overrides every off-diagonal pair.
        weights = {pair: draw(weight_values) for pair in pairs}
    else:
        weights = sparse(weight_values)
    lengths = sparse(length_values)
    return BBCGame(
        labels,
        weights=weights,
        link_lengths=lengths,
        default_weight=default_weight,
        default_link_length=default_length,
        disconnection_penalty=draw(st.sampled_from([None, 1.0, 7.5, 2.0**60])),
    )


@settings(max_examples=150, deadline=None)
@given(game=_sparse_games())
@example(game=BBCGame(range(1), default_weight=2.5))
@example(game=UniformBBCGame(9, 2))
def test_indexed_snapshot_matches_per_pair_probing(game):
    from repro.engine import IndexedGame

    indexed = IndexedGame(game)
    _assert_snapshot_matches_game(indexed, game)
    # Memory contract: nodes without overrides share one row object per
    # parameter, however large n is.
    for table, rows in (
        ("link_lengths", indexed.length_rows),
        ("weights", indexed.target_weight_rows),
    ):
        overridden = {indexed.index[source] for source, _ in game.pair_overrides(table)[0]}
        plain = [rows[u] for u in range(indexed.n) if u not in overridden]
        assert len({id(row) for row in plain}) <= 1


def test_explicit_engine_for_wrong_game_is_rejected():
    game_a = UniformBBCGame(6, 2)
    game_b = UniformBBCGame(6, 2)  # same shape, independent instance
    profile = random_profile(game_b, seed=0)
    engine_a = CostEngine(game_a)
    with pytest.raises(ValueError):
        best_response(game_b, profile, 0, engine=engine_a)
    with pytest.raises(ValueError):
        game_b.all_costs(profile, engine=engine_a)


def test_kernels_reject_forbidden_source():
    indptr, indices = build_csr([[1], [0]])
    with pytest.raises(ValueError):
        bfs_hops_csr(indptr, indices, 2, 0, forbidden=0)
    with pytest.raises(ValueError):
        dijkstra_csr(indptr, indices, [1.0, 1.0], 2, 0, forbidden=0)


def test_engine_registry_does_not_leak_dead_games():
    import gc

    from repro.engine import _ENGINES

    game = UniformBBCGame(5, 2)
    get_engine(game)
    baseline = len(_ENGINES)
    # The engine must not hold a strong reference back to the game, or the
    # weak-keyed registry entry (and its O(n^2) IndexedGame) lives forever.
    del game
    gc.collect()
    assert len(_ENGINES) == baseline - 1


# --------------------------------------------------------------------- #
# One kernel dispatch
# --------------------------------------------------------------------- #
def test_single_row_traversals_are_timed():
    game = UniformBBCGame(6, 2)
    engine = CostEngine(game, backend="python")
    engine.sync(random_profile(game, seed=3))
    engine.env_rows(0, [1])
    assert engine.traversal_seconds > 0


def _kernel_references(source):
    """``(enclosing function, kernel name)`` for every kernel reference.

    Kernels are the list kernels imported by name and the ``_npk.bfs_*`` /
    ``_npk.dijkstra_*`` / ``_npk.repair_*`` array kernels; a method is named
    ``Class.method`` and nested functions count as their enclosing one.
    """
    list_kernels = {
        "bfs_hops_csr",
        "dijkstra_csr",
        "bfs_hops_csr_multi",
        "dijkstra_csr_multi",
        "repair_hops_csr",
        "repair_dijkstra_csr",
        "mask_repair_hops",
        "mask_repair_dijkstra",
    }
    scopes = []
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.ClassDef):
            scopes += [
                (f"{statement.name}.{member.name}", member)
                for member in statement.body
                if isinstance(member, ast.FunctionDef)
            ]
        elif isinstance(statement, ast.FunctionDef):
            scopes.append((statement.name, statement))
        else:
            scopes.append((None, statement))
    found = []
    for owner, scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Name) and node.id in list_kernels:
                found.append((owner, node.id))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "_npk"
                and node.attr.startswith(("bfs_", "dijkstra_", "repair_"))
            ):
                found.append((owner, node.attr))
    return found


def _whole_row_conversions(source, names):
    """Whole-row conversions inside the functions or methods ``names``.

    Returns ``(function, expression)`` for every ``.tolist`` reference and
    every assignment to a sliced target (a ``row[:] = ...`` write-back) in
    the named top-level functions and ``Class.method`` methods of ``source``.
    """
    functions = {}
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.ClassDef):
            for member in statement.body:
                if isinstance(member, ast.FunctionDef):
                    functions[f"{statement.name}.{member.name}"] = member
        elif isinstance(statement, ast.FunctionDef):
            functions[statement.name] = statement
    found = []
    for name in names:
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and node.attr == "tolist":
                found.append((name, ast.unparse(node)))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [
                    (name, ast.unparse(target))
                    for target in targets
                    if isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Slice)
                ]
    return found


def test_traversal_kernels_are_called_only_from_the_dispatch():
    """``CostEngine._traverse`` is the engine's one traversal dispatch: no
    other code in ``cost_engine.py`` touches a traversal kernel, the repair
    kernels are touched only by ``_repair_node`` and the mask-repair kernels
    only by ``_derived_rows``.  The repair algorithm exists once: in
    ``int_kernels_np`` each ``repair_*_np`` only wraps its list repair
    kernel, and the module defines no other repair code.  Rows are derived
    and repaired in place: neither the adapters nor ``_derived_rows``
    convert a whole row (``tolist()``) or write one back (``row[:] =``)."""
    import pathlib

    from repro.engine import cost_engine
    from repro.graphs import int_kernels

    def home(name):
        if name.startswith("repair_"):
            return "CostEngine._repair_node"
        if name.startswith("mask_repair_"):
            return "CostEngine._derived_rows"
        return "CostEngine._traverse"

    references = _kernel_references(inspect.getsource(cost_engine))
    traversal = {name for _, name in references if home(name).endswith("_traverse")}
    assert traversal == {
        "bfs_hops_csr",
        "dijkstra_csr",
        "bfs_hops_csr_multi",
        "dijkstra_csr_multi",
        "bfs_hops_csr_np",
        "dijkstra_csr_np",
    }
    assert [(owner, name) for owner, name in references if owner != home(name)] == []
    assert _whole_row_conversions(
        inspect.getsource(cost_engine), ["CostEngine._derived_rows"]
    ) == []

    # Read as text, so the guard also runs where numpy is not installed.
    np_source = pathlib.Path(int_kernels.__file__).with_name("int_kernels_np.py").read_text()
    assert {
        (owner, name) for owner, name in _kernel_references(np_source) if "repair_" in name
    } == {
        ("repair_hops_csr_np", "repair_hops_csr"),
        ("repair_dijkstra_csr_np", "repair_dijkstra_csr"),
    }
    assert _whole_row_conversions(
        np_source, ["repair_hops_csr_np", "repair_dijkstra_csr_np"]
    ) == []
    assert {
        statement.name
        for statement in ast.parse(np_source).body
        if isinstance(statement, ast.FunctionDef)
    } == {
        "csr_arrays",
        "reverse_csr",
        "_gather_edges",
        "hop_dtype",
        "bfs_hops_csr_np",
        "dijkstra_csr_np",
        "bfs_hops_csr_multi",
        "dijkstra_csr_multi",
        "int_to_float_rows",
        "scaled_float_rows",
        "repair_hops_csr_np",
        "repair_dijkstra_csr_np",
    }


def _private_engine_reads(source):
    """``(line, expression)`` for every ``…engine._name`` / ``resolved._name`` read."""

    def engine_like(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        return name == "resolved" or name == "engine" or name.endswith("_engine")

    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and engine_like(node.value)
    ]


def test_engine_internals_are_read_only_inside_the_engine():
    """No ``src/`` module but ``cost_engine.py`` reads a private engine
    attribute: sweeps, the service and the core reach the engine only
    through its public methods, ``version``, ``stats`` and ``indexed``."""
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    found = {
        str(path.relative_to(root)): reads
        for path in sorted(root.rglob("*.py"))
        if path.name != "cost_engine.py"
        for reads in [_private_engine_reads(path.read_text())]
        if reads
    }
    assert found == {}
