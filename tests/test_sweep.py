"""Sweep engine: Gray enumeration invariants, incremental-check parity, parallel maps.

The sweep path (:func:`repro.engine.gray_code_profiles` +
:class:`repro.engine.SweepEvaluator`) replaces a from-scratch
``is_pure_nash`` per profile in every search; these tests pin

* the Gray-order contract — consecutive profiles differ in exactly one
  node's strategy and the full cartesian product is covered exactly once;
* bit-identical search results between the sweep path and the
  ``engine=False`` reference for exhaustive / sampled search and the
  Figure 4 completion scan;
* the ``CostEngine.sync`` changed-node return value the sweep layer relies
  on; and
* order- and process-count-independence of ``parallel_map`` studies plus the
  ``GameSpec`` rebuild round-trip.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BBCGame,
    Objective,
    SearchSpaceTooLarge,
    UniformBBCGame,
    enumerate_profiles,
    exhaustive_equilibrium_search,
    is_pure_nash,
    random_profile,
    sampled_equilibrium_search,
)
from repro.core.search import candidate_strategy_sets
from repro.engine import CostEngine, SweepEvaluator, gray_code_profiles, profile_at
from repro.experiments import GameSpec, parallel_map
from repro.experiments.workloads import latency_overlay_game


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


# --------------------------------------------------------------------- #
# Gray-code enumeration invariants
# --------------------------------------------------------------------- #
def test_gray_profiles_single_edit_and_full_coverage():
    game = UniformBBCGame(5, 2)
    profiles = list(gray_code_profiles(game))
    sets = candidate_strategy_sets(game, None, None)
    expected = 1
    for node in game.nodes:
        expected *= len(sets[node])
    assert len(profiles) == expected
    assert len(set(profiles)) == expected  # covers the product exactly once
    for previous, current in zip(profiles, profiles[1:]):
        differing = [
            node
            for node in game.nodes
            if previous.strategy(node) != current.strategy(node)
        ]
        assert len(differing) == 1  # Gray: exactly one node changes per step
    # Same product as the lexicographic enumeration, different order.
    assert set(profiles) == set(enumerate_profiles(game))


def test_gray_profiles_respects_candidate_sets_and_limit():
    game = UniformBBCGame(4, 1)
    fixed = {0: [frozenset({1})], 1: [frozenset({2}), frozenset({3})]}
    profiles = list(gray_code_profiles(game, fixed))
    assert len(profiles) == 1 * 2 * 3 * 3
    assert all(profile.strategy(0) == frozenset({1}) for profile in profiles)
    with pytest.raises(SearchSpaceTooLarge):
        list(gray_code_profiles(game, limit=10))
    with pytest.raises(ValueError):
        list(gray_code_profiles(game, fixed, candidate_strategies=fixed))


def test_gray_profiles_all_singleton_sets_yields_one_profile():
    game = UniformBBCGame(4, 1)
    sets = {node: [frozenset({(node + 1) % 4})] for node in range(4)}
    profiles = list(gray_code_profiles(game, sets))
    assert len(profiles) == 1


# --------------------------------------------------------------------- #
# O(1) Gray seeking: profile_at and start/stop subranges
# --------------------------------------------------------------------- #
@st.composite
def _mixed_radix_spaces(draw):
    """A uniform game plus candidate sets of mixed radices 1..4 per node.

    Radix-1 draws pin nodes to singleton sets and prefix draws restrict the
    candidate pool — the degenerate shapes a seek formula is likeliest to
    get wrong (the pre-fix parity bug only surfaced past radix 4).
    """
    game = UniformBBCGame(5, 1)
    sets = {}
    for node in game.nodes:
        options = sorted(
            game.feasible_strategies(node, maximal_only=True), key=repr
        )
        order = draw(st.permutations(options))
        radix = draw(st.integers(min_value=1, max_value=len(options)))
        sets[node] = list(order[:radix])
    return game, sets


@settings(max_examples=40, deadline=None)
@given(space=_mixed_radix_spaces(), data=st.data())
def test_profile_at_matches_enumeration(space, data):
    game, sets = space
    full = list(gray_code_profiles(game, sets))
    size = 1
    for node in game.nodes:
        size *= len(sets[node])
    assert len(full) == size
    for rank in range(size):
        assert profile_at(game, rank, sets) == full[rank]
    for rank in (-1, size):
        with pytest.raises(IndexError):
            profile_at(game, rank, sets)
    # Any subrange is exactly the serial stream, sliced.
    start = data.draw(st.integers(min_value=0, max_value=size))
    stop = data.draw(st.integers(min_value=start, max_value=size + 2))
    assert list(gray_code_profiles(game, sets, start=start, stop=stop)) == (
        full[start:stop]
    )
    assert list(gray_code_profiles(game, sets, start=start)) == full[start:]


def test_gray_subranges_partition_the_serial_stream():
    # Radices [6, 6, 6, 6, 6]: large enough to catch the reflection-parity
    # regression (digit-sum parity first diverges from quotient parity at
    # rank 36 of a radix-6 space).
    game = UniformBBCGame(5, 2)
    full = list(gray_code_profiles(game))
    assert len(full) == 6 ** 5
    for pieces in (2, 3, 7):
        bounds = [len(full) * i // pieces for i in range(pieces + 1)]
        glued = []
        for lo, hi in zip(bounds, bounds[1:]):
            glued.extend(gray_code_profiles(game, start=lo, stop=hi))
        assert glued == full
    strides = list(range(0, len(full), 611)) + [35, 36, 37, len(full) - 1]
    for rank in strides:
        assert profile_at(game, rank) == full[rank]
    with pytest.raises(ValueError):
        list(gray_code_profiles(game, start=-1))
    with pytest.raises(ValueError):
        list(gray_code_profiles(game, start=5, stop=4))


# --------------------------------------------------------------------- #
# sync() reports the changed nodes
# --------------------------------------------------------------------- #
def test_sync_returns_changed_node_ids():
    game = UniformBBCGame(6, 2)
    engine = CostEngine(game)
    profile = random_profile(game, seed=1)
    assert engine.sync(profile) is None  # first sync: no previous snapshot
    assert engine.sync(profile) == ()
    deviated = profile.with_strategy(2, frozenset({0, 1}) if profile.strategy(2) != frozenset({0, 1}) else frozenset({0, 3}))
    assert engine.sync(deviated) == (2,)
    other = random_profile(game, seed=9)
    changed = engine.sync(other)
    assert changed == tuple(
        u for u in range(6) if deviated.strategy(u) != other.strategy(u)
    )


# --------------------------------------------------------------------- #
# SweepEvaluator parity with the reference checker
# --------------------------------------------------------------------- #
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5_000), n=st.integers(4, 6), k=st.integers(1, 2))
def test_sweep_evaluator_matches_reference_on_gray_sweeps(seed, n, k):
    if k >= n:
        k = n - 1
    game = UniformBBCGame(n, k)
    sets = candidate_strategy_sets(game, None, None)
    rng = random.Random(seed)
    # Restrict to a small random sub-grid so the sweep stays tiny.
    restricted = {
        node: rng.sample(sets[node], min(3, len(sets[node]))) for node in game.nodes
    }
    evaluator = SweepEvaluator(game, engine=CostEngine(game))
    for profile in gray_code_profiles(game, restricted):
        assert evaluator.is_nash(profile) == is_pure_nash(game, profile, engine=False)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_sweep_evaluator_matches_reference_on_random_jumps(seed):
    # Arbitrary (multi-node) profile deltas and non-uniform float costs: the
    # memo fast paths must stay bit-identical to the chained reference rule.
    for game in (
        random_weighted_game(seed),
        random_weighted_game(seed, objective=Objective.MAX),
    ):
        evaluator = SweepEvaluator(game, engine=CostEngine(game))
        rng = random.Random(seed)
        for _ in range(6):
            profile = random_profile(game, seed=rng)
            assert evaluator.is_nash(profile) == is_pure_nash(game, profile, engine=False)


def test_sweep_evaluator_repeated_profile_uses_cached_verdict():
    game = UniformBBCGame(5, 2)
    evaluator = SweepEvaluator(game, engine=CostEngine(game))
    profile = random_profile(game, seed=4)
    first = evaluator.is_nash(profile)
    assert evaluator.is_nash(profile) == first
    assert evaluator.stats["noop_checks"] == 1


def test_sweep_evaluator_memo_reset_keeps_verdicts_correct(monkeypatch):
    from repro.engine import sweep

    monkeypatch.setattr(sweep, "MEMO_ENTRY_LIMIT", 4)
    game = UniformBBCGame(5, 2)
    evaluator = SweepEvaluator(game, engine=CostEngine(game))
    for profile in gray_code_profiles(game):
        assert evaluator.is_nash(profile) == is_pure_nash(game, profile, engine=False)
    assert evaluator.stats["memo_resets"] > 0


@pytest.mark.parametrize(
    "n, checks, equilibria, local, full",
    [(4, 81, 69, 70, 4), (5, 7776, 636, 3585, 950)],
)
def test_gray_sweep_rejects_unstable_movers_without_a_sync(n, checks, equilibria, local, full):
    # An unstable mover is probed against the engine's current profile and
    # rejects its profile with no sync, so the engine version (one bump per
    # real sync) stays well below the number of profiles checked.
    game = UniformBBCGame(n, 2)
    engine = CostEngine(game)
    summary = exhaustive_equilibrium_search(game, stop_at_first=False, engine=engine)
    assert (summary.profiles_examined, summary.equilibria_found) == (checks, equilibria)
    assert (engine.stats["local_syncs"], engine.stats["full_syncs"]) == (local, full)
    assert engine.version == local + full


def test_sweep_evaluator_rejects_engine_false():
    game = UniformBBCGame(5, 2)
    with pytest.raises(ValueError):
        SweepEvaluator(game, engine=False)


# --------------------------------------------------------------------- #
# Search entry points: sweep path vs reference path
# --------------------------------------------------------------------- #
def test_exhaustive_search_summary_parity_uniform():
    game = UniformBBCGame(4, 1)
    for stop in (True, False):
        sweep = exhaustive_equilibrium_search(game, stop_at_first=stop)
        reference = exhaustive_equilibrium_search(game, stop_at_first=stop, engine=False)
        assert sweep == reference
    assert exhaustive_equilibrium_search(game, stop_at_first=False).equilibria_found == 6


def test_exhaustive_search_summary_parity_restricted_7_2():
    game = UniformBBCGame(7, 2)
    sets = candidate_strategy_sets(game, None, None)
    candidates = {node: sets[node][:1] for node in range(2, 7)}
    sweep = exhaustive_equilibrium_search(
        game, candidate_strategies=candidates, stop_at_first=False
    )
    reference = exhaustive_equilibrium_search(
        game, candidate_strategies=candidates, stop_at_first=False, engine=False
    )
    assert sweep == reference
    assert sweep.profiles_examined == 15 * 15


def test_exhaustive_search_summary_parity_non_uniform():
    for seed in (0, 3):
        game = random_weighted_game(seed, n=5)
        sweep = exhaustive_equilibrium_search(game, stop_at_first=False)
        reference = exhaustive_equilibrium_search(game, stop_at_first=False, engine=False)
        assert sweep == reference


def test_searches_honour_deviation_limit():
    # deviation_limit bounds each node's deviation enumeration on the sweep
    # path and on the dict-based reference path alike.
    game = UniformBBCGame(4, 1)
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_equilibrium_search(game, deviation_limit=1)
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_equilibrium_search(game, deviation_limit=1, engine=False)
    with pytest.raises(SearchSpaceTooLarge):
        sampled_equilibrium_search(game, samples=1, deviation_limit=1)


def test_sampled_search_parity():
    game = UniformBBCGame(6, 2)
    sweep = sampled_equilibrium_search(game, samples=25, seed=11)
    reference = sampled_equilibrium_search(game, samples=25, seed=11, engine=False)
    assert sweep == reference
    assert sweep.profiles_examined == 25


def test_figure4_reconstruction_parity():
    from repro.dynamics import reconstruct_figure4, verify_figure4_loop

    sweep = reconstruct_figure4(max_results=1)
    reference = reconstruct_figure4(max_results=1, engine=False)
    assert [r.profile for r in sweep] == [r.profile for r in reference]
    assert [r.deviation_sequence for r in sweep] == [
        r.deviation_sequence for r in reference
    ]
    assert [r.initial_costs for r in sweep] == [r.initial_costs for r in reference]
    assert sweep and verify_figure4_loop(sweep[0])


def test_figure4_reconstruction_max_results_zero_returns_nothing():
    from repro.dynamics import reconstruct_figure4

    assert reconstruct_figure4(max_results=0) == []


# --------------------------------------------------------------------- #
# Process-parallel sweeps
# --------------------------------------------------------------------- #
def test_game_spec_roundtrip_uniform_and_general():
    import pickle

    uniform = UniformBBCGame(6, 2, objective=Objective.MAX)
    rebuilt = pickle.loads(pickle.dumps(GameSpec.from_game(uniform))).build()
    assert rebuilt.n == 6 and rebuilt.k == 2
    assert rebuilt.objective is Objective.MAX
    assert rebuilt.disconnection_penalty == uniform.disconnection_penalty

    general = latency_overlay_game(6, seed=3)
    spec = pickle.loads(pickle.dumps(GameSpec.from_game(general)))
    rebuilt = spec.build()
    assert rebuilt.nodes == general.nodes
    profile = random_profile(general, seed=0)
    assert rebuilt.all_costs(profile) == general.all_costs(profile)
    assert is_pure_nash(rebuilt, profile) == is_pure_nash(general, profile)


def test_parallel_map_preserves_order_and_matches_serial():
    items = list(range(17))
    serial = parallel_map(_square, items, processes=1)
    assert serial == [x * x for x in items]
    parallel = parallel_map(_square, items, processes=2)
    assert parallel == serial
    assert parallel_map(_square, [], processes=2) == []
    with pytest.raises(ValueError):
        parallel_map(_square, items, processes=0)


def _square(x):
    return x * x


def test_sharded_search_bit_identical_to_serial():
    game = UniformBBCGame(4, 2)
    for stop in (True, False):
        serial = exhaustive_equilibrium_search(game, stop_at_first=stop)
        for processes in (2, 3):
            sharded = exhaustive_equilibrium_search(
                game, stop_at_first=stop, processes=processes
            )
            assert sharded == serial
    # The reference path shards too (workers skip engine construction).
    assert exhaustive_equilibrium_search(
        game, stop_at_first=False, processes=2, engine=False
    ) == exhaustive_equilibrium_search(game, stop_at_first=False, engine=False)


def test_sharded_search_general_game_rebuilds_tables():
    game = random_weighted_game(3, n=5)
    serial = exhaustive_equilibrium_search(
        game, stop_at_first=False, checkpoint_every=64
    )
    sharded = exhaustive_equilibrium_search(
        game, stop_at_first=False, checkpoint_every=64, processes=2
    )
    assert sharded == serial


def test_sharded_search_rejects_explicit_engine_instance():
    game = UniformBBCGame(4, 1)
    with pytest.raises(ValueError):
        exhaustive_equilibrium_search(game, engine=CostEngine(game), processes=2)
    # processes=1 keeps accepting an explicit instance (the serial loop).
    summary = exhaustive_equilibrium_search(game, engine=CostEngine(game))
    assert summary == exhaustive_equilibrium_search(game)


def test_search_has_one_block_loop():
    """``_sweep_blocks`` is the one per-block loop of exhaustive search:
    serial and sharded runs both go through it, so ``search.py`` names the
    ``search.profile`` fault site exactly once."""
    import ast
    import inspect

    from repro.core import search

    sites = [
        node
        for node in ast.walk(ast.parse(inspect.getsource(search)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "fault_point"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "search.profile"
    ]
    assert len(sites) == 1


def test_equilibrium_census_study_shards_identically():
    from repro.analysis import equilibrium_census_study

    grid = [(4, 1), (4, 2)]
    serial = equilibrium_census_study(grid)
    assert equilibrium_census_study(grid, processes=2) == serial
    assert serial[0]["equilibria"] == 6
    assert all(row["exhausted"] for row in serial)


def test_equilibrium_census_study_journal_resume(tmp_path):
    from repro.analysis import equilibrium_census_study

    grid = [(4, 1)]
    first = equilibrium_census_study(grid, journal_dir=tmp_path)
    assert (tmp_path / "census-n4-k1.json").exists()
    resumed = equilibrium_census_study(grid, journal_dir=tmp_path, processes=2)
    assert resumed == first


def test_studies_identical_across_process_counts():
    from repro.analysis.studies import connectivity_convergence_study, fairness_study
    from repro.experiments import max_cost_first_convergence_study

    assert fairness_study([(2, 2, 1)], processes=1) == fairness_study(
        [(2, 2, 1)], processes=2
    )
    assert connectivity_convergence_study([6], 2, processes=1) == (
        connectivity_convergence_study([6], 2, processes=2)
    )
    serial = max_cost_first_convergence_study(
        7, 2, num_starts=3, max_rounds=25, seed=0, processes=1
    )
    fanned = max_cost_first_convergence_study(
        7, 2, num_starts=3, max_rounds=25, seed=0, processes=2
    )
    assert serial == fanned
    assert [row["start"] for row in serial] == [0, 1, 2]
