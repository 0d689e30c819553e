"""The immutable EngineSnapshot layer and its cross-process byte packing.

These tests pin the "Snapshot ownership and lifetime" contract documented in
:mod:`repro.engine`:

* the engine publishes a *fresh* frozen snapshot per profile version and
  never mutates an old one — a reader holding a snapshot is immune to later
  ``sync`` calls;
* :func:`pack_payload` / :func:`unpack_payload` round-trip an arbitrary
  header object plus named numpy arrays through one contiguous byte layout,
  returning read-only zero-copy views on the full leg;
* :func:`export_tables` / :func:`restore_tables` ship an ``IndexedGame``'s
  probed static tables bit-exactly, so an adopting engine in a pool worker
  is indistinguishable (``all_costs`` equal on every probed profile) from
  one that probed locally — including the zero-copy adoption of the dense
  length matrix on the array path.
"""

import random

import pytest

from repro.core import BBCGame, Objective, UniformBBCGame
from repro.core.profile import StrategyProfile
from repro.engine import CostEngine, export_tables, restore_tables
from repro.engine.indexed import IndexedGame
from repro.engine.snapshot import (
    PAYLOAD_ALIGN,
    TABLE_ARRAY_KEYS,
    csr_arrays_of,
    csr_of,
    pack_payload,
    unpack_payload,
)

try:
    import numpy as np

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False


def weighted_game(seed, n=5, objective=Objective.SUM):
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
        objective=objective,
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


# --------------------------------------------------------------------------- #
# Byte packing: header + aligned zero-copy array blocks
# --------------------------------------------------------------------------- #
class TestPayloadPacking:
    def test_header_only_round_trip(self):
        obj = {"params": {"tolerance": 1e-9}, "sets": [(0, [1, 2]), (1, [0])]}
        blob = pack_payload(obj)
        decoded, arrays = unpack_payload(blob)
        assert decoded == obj
        assert arrays == {}

    @pytest.mark.skipif(not HAVE_NUMPY, reason="array blocks require numpy")
    def test_arrays_come_back_as_readonly_aligned_views(self):
        obj = {"k": 1}
        source = {
            "a": np.arange(12, dtype=np.int64).reshape(3, 4),
            "b": np.linspace(0.0, 1.0, 7),
        }
        blob = pack_payload(obj, source)
        decoded, arrays = unpack_payload(blob)
        assert decoded == obj
        assert set(arrays) == {"a", "b"}
        for name, original in source.items():
            view = arrays[name]
            assert view.dtype == original.dtype
            assert view.shape == original.shape
            assert view.tolist() == original.tolist()
            assert not view.flags.writeable
            # Zero copy: the view's memory lives inside the packed buffer,
            # aligned to the payload grain.
            offset = view.__array_interface__["data"][0] - (
                np.frombuffer(blob, dtype=np.uint8).__array_interface__["data"][0]
            )
            assert offset % PAYLOAD_ALIGN == 0

    @pytest.mark.skipif(not HAVE_NUMPY, reason="float64 bit-exactness via numpy")
    def test_float64_round_trip_is_bit_exact(self):
        values = np.array([0.1, 1e300, -7.25, 2.0**53 - 1.0, 3.141592653589793])
        blob = pack_payload(None, {"v": values})
        _, arrays = unpack_payload(blob)
        assert arrays["v"].tobytes() == values.tobytes()


# --------------------------------------------------------------------------- #
# Static-table export/restore/adopt: bit-identical engines in pool workers
# --------------------------------------------------------------------------- #
class TestTableExport:
    def test_uniform_games_ship_a_compact_marker(self):
        indexed = IndexedGame(UniformBBCGame(6, 2))
        tables, arrays = export_tables(indexed)
        assert tables.compact
        assert arrays == {}
        assert restore_tables(tables, {}) is tables
        # Adoption treats compact as "construct normally".
        rebuilt = IndexedGame(UniformBBCGame(6, 2), tables=tables)
        assert rebuilt.length_rows == indexed.length_rows

    def test_restore_is_bit_identical_through_pack_unpack(self):
        game = weighted_game(5)
        probed = IndexedGame(game)
        tables, arrays = export_tables(probed)
        assert not tables.compact
        blob = pack_payload({"tables": tables}, arrays or None)
        obj, shipped = unpack_payload(blob)
        restored = restore_tables(obj["tables"], shipped)
        adopted = IndexedGame(game, tables=restored)
        assert adopted.length_rows == probed.length_rows
        assert adopted.target_rows == probed.target_rows
        assert adopted.target_weight_rows == probed.target_weight_rows
        assert adopted.unit_weight_nodes == probed.unit_weight_nodes
        assert adopted.integral_lengths == probed.integral_lengths
        assert adopted.exact_sums == probed.exact_sums
        if HAVE_NUMPY:
            assert set(shipped) == set(TABLE_ARRAY_KEYS)

    def test_adopting_engine_scores_identically(self):
        game = weighted_game(9)
        reference = CostEngine(game)
        tables, arrays = export_tables(reference.indexed)
        obj, shipped = unpack_payload(pack_payload(tables, arrays or None))
        adopted = CostEngine(game, tables=restore_tables(obj, shipped))
        for shift in (1, 2, 3):
            profile = ring_profile(game, shift=shift)
            assert adopted.all_costs(profile) == reference.all_costs(profile)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="zero-copy path requires numpy")
    def test_length_matrix_is_adopted_zero_copy(self):
        game = weighted_game(13)
        probed = IndexedGame(game)
        tables, arrays = export_tables(probed)
        obj, shipped = unpack_payload(pack_payload(tables, arrays))
        restored = restore_tables(obj, shipped)
        assert restored.length_matrix is shipped["tables.lengths"]
        assert not restored.length_matrix.flags.writeable
        adopted = IndexedGame(game, tables=restored)
        # The adopted game's dense matrix *is* the shared-segment view — no
        # private copy is ever materialised.
        assert adopted.length_matrix() is shipped["tables.lengths"]
        assert adopted.length_matrix().tolist() == [
            list(row) for row in probed.length_rows
        ]

    def test_adoption_rejects_a_foreign_node_set(self):
        tables, _ = export_tables(IndexedGame(weighted_game(5, n=5)))
        with pytest.raises(ValueError, match="different node set"):
            IndexedGame(weighted_game(5, n=6), tables=tables)
