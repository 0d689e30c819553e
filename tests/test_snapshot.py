"""The immutable EngineSnapshot layer.

These tests pin the "Snapshot ownership and lifetime" contract documented in
:mod:`repro.engine`: the engine publishes a *fresh* frozen snapshot per
profile version and never mutates an old one — a reader holding a snapshot
is immune to later ``sync`` calls — and the snapshot's list-space CSR and
its numpy mirrors describe the same graph.
"""

import random

import pytest

from repro.core import BBCGame, UniformBBCGame
from repro.core.profile import StrategyProfile
from repro.engine import CostEngine
from repro.engine.snapshot import csr_arrays_of, csr_of

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False


def weighted_game(seed, n=5):
    """A non-uniform game whose tables need real n^2 probing to build."""
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
    )


def ring_profile(game, shift=1):
    nodes = list(game.nodes)
    n = len(nodes)
    return StrategyProfile(
        {u: frozenset({nodes[(i + shift) % n]}) for i, u in enumerate(nodes)}
    )


# --------------------------------------------------------------------------- #
# Snapshot immutability and per-version freshness
# --------------------------------------------------------------------------- #
class TestSnapshotLifetime:
    def test_snapshot_is_stable_until_the_profile_changes(self):
        game = UniformBBCGame(5, 1)
        engine = CostEngine(game)
        profile = ring_profile(game)
        engine.sync(profile)
        first = engine.snapshot()
        engine.sync(profile)  # unchanged profile: same version, same object
        assert engine.snapshot() is first

    def test_sync_publishes_a_fresh_snapshot_and_never_mutates_old_ones(self):
        game = weighted_game(11)
        engine = CostEngine(game)
        engine.sync(ring_profile(game, shift=1))
        old = engine.snapshot()
        old_version = old.version
        old_csr = (list(old.indptr), list(old.indices))
        old_strategies = old.label_strategies

        engine.sync(ring_profile(game, shift=2))
        new = engine.snapshot()
        assert new is not old
        assert new.version > old_version
        # The old snapshot is frozen: every field a traversal reads is
        # byte-for-byte what it was when it was published.
        assert old.version == old_version
        assert (list(old.indptr), list(old.indices)) == old_csr
        assert old.label_strategies is old_strategies
        with pytest.raises(Exception):
            old.version = 99  # frozen dataclass

    def test_snapshot_reads_through_to_static_tables(self):
        game = weighted_game(3)
        engine = CostEngine(game)
        engine.sync(ring_profile(game))
        snap = engine.snapshot()
        assert snap.indexed is engine.indexed
        indptr, indices, edge_lengths = csr_of(snap)
        assert indptr is snap.indptr and indices is snap.indices
        assert len(indptr) == snap.indexed.n + 1
        if edge_lengths is not None:
            assert len(edge_lengths) == len(indices)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="array mirrors require numpy")
    def test_array_mirrors_match_list_space(self):
        game = weighted_game(7)
        engine = CostEngine(game)
        engine.sync(ring_profile(game))
        snap = engine.snapshot()
        indptr_np, indices_np, lengths_np, _ = csr_arrays_of(snap)
        if indptr_np is None:
            pytest.skip("list backend selected; no array mirrors to compare")
        assert indptr_np.tolist() == list(snap.indptr)
        assert indices_np.tolist() == list(snap.indices)
        if snap.edge_lengths is not None:
            assert lengths_np.tolist() == list(snap.edge_lengths)
