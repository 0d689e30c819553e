"""Parity of the numpy traversal backend against the list kernels.

Two layers, mirroring ``tests/test_engine_parity.py``:

* kernel level — the array kernels in :mod:`repro.graphs.int_kernels_np`
  (single-source, multi-source, and repair) against the list kernels on
  randomized graphs, masked and unmasked, with zero-length edges and
  disconnected nodes;
* engine level — ``CostEngine(game, backend="numpy")`` against
  ``backend="python"`` on full equilibrium reports, ``all_costs``, and
  best-response walk traces (the repair-after-edit path), all required
  **bit-identical**.

The backend selector's fallback behaviour (auto resolution, the explicit
``backend="numpy"`` failure without numpy) is tested without requiring
numpy, so the minimal-deps CI leg still exercises it.
"""

import itertools
import math
import random

import pytest

from repro.core import (
    BBCGame,
    StrategyProfile,
    UniformBBCGame,
    best_response,
    equilibrium_report,
)
from repro.dynamics import run_best_response_walk
from repro.engine import (
    NUMPY_BACKEND_MIN_N,
    CostEngine,
    SweepEvaluator,
    resolve_backend,
)
from repro.engine import cost_engine
from repro.engine.cost_engine import NUMPY_BACKEND_MIN_N_UNIFORM
from repro.graphs.int_kernels import (
    bfs_hops_csr,
    bfs_hops_csr_multi,
    build_csr,
    dijkstra_csr,
    dijkstra_csr_multi,
    mask_repair_dijkstra,
    mask_repair_hops,
    reverse_csr,
)
from repro.experiments.workloads import random_initial_profile

try:
    import numpy as np
except ImportError:  # pragma: no cover - the minimal CI leg
    np = None

needs_numpy = pytest.mark.skipif(np is None, reason="numpy is not installed")

if np is not None:
    from repro.graphs import int_kernels_np as npk

from hypothesis import given, settings, strategies as st

from test_best_response import scoring_game, sparse_profile
from test_engine_parity import (
    MASK_SHAPES,
    _csr_with_lengths,
    _mask_repair_case,
    _random_adjacency,
    _random_edit_sequence,
)


def _float_rows_equal(reference, produced):
    """Bitwise row equality with inf == inf (lists or arrays, any numeric mix)."""
    assert len(reference) == len(produced)
    for a, b in zip(reference, produced):
        if math.isinf(a):
            assert math.isinf(b)
        else:
            assert a == b


def _length_choices(integral):
    # Zero-length edges exercise the tie rules; the non-integral pool forces
    # the float64 frontier path (including an awkwardly rounded value).
    if integral:
        return [0.0, 1.0, 1.0, 2.0, 5.0]
    return [0.0, 0.1, 1.0, 1.7, 2.30000001]


# --------------------------------------------------------------------- #
# Kernel-level parity
# --------------------------------------------------------------------- #
@needs_numpy
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12), integral=st.booleans())
def test_fresh_kernels_match_list_kernels(seed, n, integral):
    """BFS and Dijkstra array kernels are bit-identical, masked and unmasked."""
    rng = random.Random(seed)
    rows = _random_adjacency(rng, n)
    length_rows = [
        [float(rng.choice(_length_choices(integral))) for _ in range(n)]
        for _ in range(n)
    ]
    indptr, indices, lengths = _csr_with_lengths(rows, length_rows)
    indptr_np, indices_np = npk.csr_arrays(indptr, indices)
    lengths_np = np.asarray(
        lengths, dtype=np.int64 if integral else np.float64
    )
    for forbidden in (-1, rng.randrange(n)):
        for source in range(n):
            if source == forbidden:
                continue
            hops = bfs_hops_csr(indptr, indices, n, source, forbidden)
            hops_np = npk.bfs_hops_csr_np(indptr_np, indices_np, n, source, forbidden)
            assert hops == hops_np.tolist()
            dist = dijkstra_csr(indptr, indices, lengths, n, source, forbidden)
            dist_np = npk.dijkstra_csr_np(
                indptr_np, indices_np, lengths_np, n, source, forbidden
            )
            produced = (
                npk.int_to_float_rows(dist_np) if integral else dist_np
            )
            _float_rows_equal(dist, produced)


@needs_numpy
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12), integral=st.booleans())
def test_multi_source_kernels_match_single_source(seed, n, integral):
    """Each row of the batched kernels equals its single-source counterpart."""
    rng = random.Random(seed)
    rows = _random_adjacency(rng, n)
    length_rows = [
        [float(rng.choice(_length_choices(integral))) for _ in range(n)]
        for _ in range(n)
    ]
    indptr, indices, lengths = _csr_with_lengths(rows, length_rows)
    indptr_np, indices_np = npk.csr_arrays(indptr, indices)
    lengths_np = np.asarray(lengths, dtype=np.int64 if integral else np.float64)
    for forbidden in (-1, rng.randrange(n)):
        sources = [s for s in range(n) if s != forbidden]
        hop_matrix = npk.bfs_hops_csr_multi(
            indptr_np, indices_np, n, sources, forbidden
        )
        dist_matrix = npk.dijkstra_csr_multi(
            indptr_np, indices_np, lengths_np, n, sources, forbidden
        )
        for i, source in enumerate(sources):
            assert hop_matrix[i].tolist() == bfs_hops_csr(
                indptr, indices, n, source, forbidden
            )
            reference = dijkstra_csr(indptr, indices, lengths, n, source, forbidden)
            produced = (
                npk.int_to_float_rows(dist_matrix[i])
                if integral
                else dist_matrix[i]
            )
            _float_rows_equal(reference, produced)


@needs_numpy
def test_multi_source_rejects_forbidden_source():
    indptr, indices = npk.csr_arrays(*build_csr([[1], [0]]))
    with pytest.raises(ValueError):
        npk.bfs_hops_csr_multi(indptr, indices, 2, [0, 1], forbidden=1)
    with pytest.raises(ValueError):
        npk.dijkstra_csr_multi(
            indptr, indices, np.asarray([1.0, 1.0]), 2, [0, 1], forbidden=1
        )


def _random_per_row_masks(rng, sources, n):
    """Per-row forbidden masks: a mix of -1 and random non-source nodes."""
    masks = []
    for s in sources:
        if rng.random() < 0.3 or n < 2:
            masks.append(-1)
        else:
            masks.append(rng.choice([v for v in range(n) if v != s]))
    return masks


@needs_numpy
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_per_row_mask_kernels_match_single_source(seed, n):
    """Row i of a per-row-masked BFS batch equals a single masked traversal.

    Each row computes ``d_{G-u_i}`` for its *own* masked node — the uniform
    giant-batch substrate — so the shared frontier must never leak values
    through a node that is forbidden for one row but live for another.
    Covers disconnected nodes.  (The batched numpy Dijkstra takes one
    shared mask; weighted masked rows are derived, see
    ``test_numpy_derived_weighted_rows_match_masked_traversals``.)
    """
    rng = random.Random(seed)
    rows = _random_adjacency(rng, n)
    indptr, indices = build_csr(rows)
    indptr_np, indices_np = npk.csr_arrays(indptr, indices)
    sources = [rng.randrange(n) for _ in range(rng.randint(2, 2 * n))]
    masks = _random_per_row_masks(rng, sources, n)
    hop_matrix = npk.bfs_hops_csr_multi(indptr_np, indices_np, n, sources, masks)
    for i, (source, forbidden) in enumerate(zip(sources, masks)):
        assert hop_matrix[i].tolist() == bfs_hops_csr(
            indptr, indices, n, source, forbidden
        )


@needs_numpy
def test_hop_dtype_holds_any_repaired_label():
    """The hop dtype of both BFS kernels must hold every label a later repair
    can write (up to ``n - 2``), not just this shallow traversal's: on a
    random 2-out graph at n = 40000 the BFS is ~16 rounds deep, which once
    picked int16 and made ``repair_hops_csr_np`` overflow.  Below that the
    narrow int16 rows are the engine's cached rows."""
    n = 40_000
    rng = random.Random(7)
    rows = [sorted({rng.randrange(n) for _ in range(2)} - {u}) for u in range(n)]
    indptr_np, indices_np = npk.csr_arrays(*build_csr(rows))
    hops = npk.bfs_hops_csr_multi(indptr_np, indices_np, n, [0, 1])
    assert hops.dtype == np.int64 and np.iinfo(hops.dtype).max >= n
    assert npk.bfs_hops_csr_np(indptr_np, indices_np, n, 0).dtype == np.int64
    # The largest n that stays int16, with a mask (the mask must not
    # overflow the narrow row either).
    small = 32_767
    small_rows = [[v for v in row if v < small] for row in rows[:small]]
    indptr_np, indices_np = npk.csr_arrays(*build_csr(small_rows))
    multi = npk.bfs_hops_csr_multi(indptr_np, indices_np, small, [0, 1], 2)
    single = npk.bfs_hops_csr_np(indptr_np, indices_np, small, 0, 2)
    assert multi.dtype == single.dtype == np.int16
    assert multi[0].tolist() == single.tolist()


@needs_numpy
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_wide_batch_dense_rounds_match_narrow_batches(seed):
    """Giant-width batches (>= 4 bit-planes of sources, so the dense
    reverse-CSR reduceat rounds engage) agree row for row with narrow
    batches that stay on the sparse scatter.  Sparse graphs make empty
    in-edge head groups — including a trailing run of them, the regression
    of record: clipping a trailing start used to drop the previous head's
    last in-edge from its reduceat group."""
    rng = random.Random(seed)
    n = rng.randint(32, 64)
    # Sparse rows (out-degree <= 3) keep diameters long enough that many
    # rounds run dense; dense graphs would finish before the switch.
    rows = [
        sorted(rng.sample([v for v in range(n) if v != u], rng.randint(0, 3)))
        for u in range(n)
    ]
    # Guarantee in-degree-0 heads, one of them last.
    orphans = {n - 1, rng.randrange(n)}
    rows = [sorted(set(row) - orphans) for row in rows]
    indptr, indices = build_csr(rows)
    indptr_np, indices_np = npk.csr_arrays(indptr, indices)
    num = rng.randint(193, 320)  # words >= 4
    sources = [rng.randrange(n) for _ in range(num)]
    for forbidden in (-1, _random_per_row_masks(rng, sources, n)):
        wide = npk.bfs_hops_csr_multi(indptr_np, indices_np, n, sources, forbidden)
        step = 8
        for lo in range(0, num, step):
            masks = forbidden if forbidden == -1 else forbidden[lo:lo + step]
            narrow = npk.bfs_hops_csr_multi(
                indptr_np, indices_np, n, sources[lo:lo + step], masks
            )
            assert np.array_equal(wide[lo:lo + step], narrow)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 10), integral=st.booleans())
def test_list_multi_kernels_match_single_source(seed, n, integral):
    """The list-kernel batched forms (the reference, and the python
    backend's giant-batch path) agree row for row with single traversals —
    with a shared scalar mask and with per-row masks."""
    rng = random.Random(seed)
    rows = _random_adjacency(rng, n)
    length_rows = [
        [float(rng.choice(_length_choices(integral))) for _ in range(n)]
        for _ in range(n)
    ]
    indptr, indices, lengths = _csr_with_lengths(rows, length_rows)
    sources = [rng.randrange(n) for _ in range(rng.randint(2, 2 * n))]
    masks = _random_per_row_masks(rng, sources, n)
    non_sources = [v for v in range(n) if v not in sources]
    shared = rng.choice(non_sources) if non_sources else -1
    for forbidden in (masks, shared):
        per_row = forbidden if isinstance(forbidden, list) else [forbidden] * len(sources)
        assert bfs_hops_csr_multi(indptr, indices, n, sources, forbidden) == [
            bfs_hops_csr(indptr, indices, n, s, f)
            for s, f in zip(sources, per_row)
        ]
        assert dijkstra_csr_multi(
            indptr, indices, lengths, n, sources, forbidden
        ) == [
            dijkstra_csr(indptr, indices, lengths, n, s, f)
            for s, f in zip(sources, per_row)
        ]


def test_per_row_masks_reject_collisions_and_misalignment():
    indptr, indices = build_csr([[1], [0]])
    with pytest.raises(ValueError):
        bfs_hops_csr_multi(indptr, indices, 2, [0, 1], [1, 1])
    with pytest.raises(ValueError):
        dijkstra_csr_multi(indptr, indices, [1.0, 1.0], 2, [0, 1], [0, 1, 0])
    if np is not None:
        indptr_np, indices_np = npk.csr_arrays(indptr, indices)
        with pytest.raises(ValueError):
            npk.bfs_hops_csr_multi(indptr_np, indices_np, 2, [0, 1], [1, 1])
        # The batched numpy Dijkstra takes one mask shared by every row.
        with pytest.raises(TypeError):
            npk.dijkstra_csr_multi(
                indptr_np, indices_np, np.asarray([1.0, 1.0]), 2, [0, 1], [-1, -1]
            )


@needs_numpy
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(3, 11),
    steps=st.integers(1, 4),
    integral=st.booleans(),
)
def test_repair_kernels_match_fresh_traversals_np(seed, n, steps, integral):
    """Array rows repaired through the list-kernel adapters are bit-identical
    to fresh traversals of the new graph, and a repaired row that is a view
    into a batch matrix is edited in place: int16 and int64 hop rows and
    float64 distance rows keep their dtype, and the other row stays as it
    was."""
    rng = random.Random(seed)
    rows = _random_adjacency(rng, n)
    length_rows = [
        [float(rng.choice(_length_choices(integral))) for _ in range(n)]
        for _ in range(n)
    ]
    indptr0, indices0, lengths0 = _csr_with_lengths(rows, length_rows)
    new_rows, edits = _random_edit_sequence(rng, rows, steps)
    indptr1, indices1, lengths1 = _csr_with_lengths(new_rows, length_rows)
    indptr0_np, indices0_np = npk.csr_arrays(indptr0, indices0)
    rev_indptr, rev_tails = reverse_csr(indptr1, indices1, n)
    for forbidden in (-1, rng.randrange(n)):
        sources = [source for source in range(n) if source != forbidden]
        for source in sources:
            # Hop rows repair the array the engine caches (the single-source
            # kernel's output).
            hops = npk.bfs_hops_csr_np(indptr0_np, indices0_np, n, source, forbidden)
            npk.repair_hops_csr_np(
                indptr1, indices1, hops, source, edits,
                rev_indptr, rev_tails, forbidden,
            )
            assert hops.tolist() == bfs_hops_csr(indptr1, indices1, n, source, forbidden)
            dist = np.asarray(
                dijkstra_csr(indptr0, indices0, lengths0, n, source, forbidden),
                dtype=np.float64,
            )
            npk.repair_dijkstra_csr_np(
                indptr1, indices1, lengths1, dist, source, edits,
                rev_indptr, rev_tails, length_rows, forbidden,
            )
            _float_rows_equal(
                dijkstra_csr(indptr1, indices1, lengths1, n, source, forbidden), dist
            )
        # Row 0 of a two-row batch matrix, repaired through its view.
        pair = [sources[0], sources[-1]]
        batch = npk.bfs_hops_csr_multi(indptr0_np, indices0_np, n, pair, forbidden)
        assert batch.dtype == np.int16
        for dtype in (np.int16, np.int64):
            matrix = batch.astype(dtype)
            untouched = matrix[1].copy()
            npk.repair_hops_csr_np(
                indptr1, indices1, matrix[0], pair[0], edits,
                rev_indptr, rev_tails, forbidden,
            )
            assert matrix.dtype == dtype
            assert np.array_equal(matrix[1], untouched)
            assert matrix[0].tolist() == bfs_hops_csr(
                indptr1, indices1, n, pair[0], forbidden
            )
        matrix = np.asarray(
            [dijkstra_csr(indptr0, indices0, lengths0, n, s, forbidden) for s in pair]
        )
        untouched = matrix[1].copy()
        npk.repair_dijkstra_csr_np(
            indptr1, indices1, lengths1, matrix[0], pair[0], edits,
            rev_indptr, rev_tails, length_rows, forbidden,
        )
        assert matrix.dtype == np.float64
        assert np.array_equal(matrix[1], untouched)
        assert matrix[0].tolist() == dijkstra_csr(
            indptr1, indices1, lengths1, n, pair[0], forbidden
        )


@needs_numpy
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 40),
    shape=st.sampled_from(MASK_SHAPES),
    hop_dtype=st.sampled_from([np.int16, np.int64] if np is not None else [None]),
)
def test_mask_repair_kernels_derive_into_array_rows(seed, n, shape, hop_dtype):
    """The mask-repair kernels derive through a ``memoryview`` of an array
    row exactly as through a list, as the engine's numpy fill does: a
    float64 row that is a view into a two-row matrix (its other row stays as
    it was) and int16 / int64 hop rows (the dtype is kept) all equal the
    masked traversals, and the base rows they were copied from stay
    untouched.  Lengths include zero, ``u`` may be unreachable, and rows
    hold ``inf`` / ``UNREACHED`` entries."""
    indptr, indices, lengths, length_rows, rev_indptr, rev_tails, source, u = (
        _mask_repair_case(seed, n, shape)
    )
    base_hops = np.asarray(bfs_hops_csr(indptr, indices, n, source), dtype=hop_dtype)
    base_dist = np.asarray(dijkstra_csr(indptr, indices, lengths, n, source))
    other = dijkstra_csr(indptr, indices, lengths, n, u)
    for masked in [u] + [v for v in range(n) if v not in (source, u)]:
        hops = base_hops.copy()
        mask_repair_hops(
            indptr, indices, memoryview(hops), source, masked, rev_indptr, rev_tails
        )
        assert hops.dtype == hop_dtype
        assert hops.tolist() == bfs_hops_csr(indptr, indices, n, source, forbidden=masked)
        matrix = np.empty((2, n))
        matrix[0] = base_dist
        matrix[1] = other
        mask_repair_dijkstra(
            indptr, indices, lengths, memoryview(matrix[0]), source, masked,
            rev_indptr, rev_tails, length_rows,
        )
        assert matrix[0].tolist() == dijkstra_csr(
            indptr, indices, lengths, n, source, forbidden=masked
        )
        assert matrix[1].tolist() == other
    assert base_hops.tolist() == bfs_hops_csr(indptr, indices, n, source)
    assert base_dist.tolist() == dijkstra_csr(indptr, indices, lengths, n, source)


# --------------------------------------------------------------------- #
# Backend selection
# --------------------------------------------------------------------- #
def test_resolve_backend_pins_and_rejects():
    assert resolve_backend("python", 10_000) == "python"
    with pytest.raises(ValueError):
        resolve_backend("vectorised", 8)
    if np is None:
        with pytest.raises(ValueError):
            resolve_backend("numpy", 8)
        assert resolve_backend(None, 10_000) == "python"
        assert resolve_backend("auto", 10_000, uniform_lengths=True) == "python"
    else:
        assert resolve_backend("numpy", 8) == "numpy"
        assert resolve_backend(None, NUMPY_BACKEND_MIN_N) == "numpy"
        assert resolve_backend(None, NUMPY_BACKEND_MIN_N - 1) == "python"
        assert (
            resolve_backend("auto", NUMPY_BACKEND_MIN_N, uniform_lengths=True)
            == "python"
        )
        assert (
            resolve_backend("auto", NUMPY_BACKEND_MIN_N_UNIFORM, uniform_lengths=True)
            == "numpy"
        )


def test_engine_backend_defaults_to_python_on_small_games():
    engine = CostEngine(UniformBBCGame(6, 2))
    assert engine.backend == "python"


# --------------------------------------------------------------------- #
# Engine-level parity
# --------------------------------------------------------------------- #
def _weighted_game(n, seed=5, integral=True):
    rng = random.Random(seed)
    lengths = {}
    for u in range(n):
        for v in rng.sample([x for x in range(n) if x != u], min(5, n - 1)):
            value = float(rng.randint(2, 7))
            lengths[(u, v)] = value if integral else value + 0.25
    return BBCGame(nodes=range(n), link_lengths=lengths, default_budget=2.0)


def _unit_game(n, unit):
    """A uniform-length game whose unit is not 1: every cost the engine reads
    is ``float(h) * unit`` scaled from its cached hop rows.  Unit 1.5 makes
    the lengths non-integral (no exact-sum licence: the list ``fast_sum``
    scorer), unit 3.0 keeps them integral (the vectorised ``fast_batch``)."""
    return BBCGame(nodes=range(n), default_budget=2.0, default_link_length=unit)


#: Non-unit uniform lengths, each with the scorer path it must drive.
UNIT_GAMES = [
    pytest.param(1.5, False, id="unit-1.5-fast-sum"),
    pytest.param(3.0, True, id="unit-3.0-fast-batch"),
]


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("unit, fast_batch", UNIT_GAMES)
def test_non_unit_lengths_match_reference_across_repairs(backend, unit, fast_batch):
    """Candidate best responses and ``all_costs`` on a non-unit uniform game
    match ``engine=False`` bit for bit, across single-node profile steps
    whose rows the engine repairs in hop space and scales only when read."""
    if backend == "numpy" and np is None:
        pytest.skip("numpy is not installed")
    n = 24
    game = _unit_game(n, unit)
    engine = CostEngine(game, backend=backend)
    profile = random_initial_profile(game, seed=2)
    engine.sync(profile)
    scorer = engine.scorer(0)
    assert scorer.fast_sum and scorer.fast_batch == (fast_batch and np is not None)
    rng = random.Random(17)
    candidates = _restricted_candidates(game, per_node=6)
    for _ in range(8):
        for node in (0, 5, 11):
            got = best_response(
                game, profile, node, candidates=candidates[node], engine=engine
            )
            want = best_response(
                game, profile, node, candidates=candidates[node], engine=False
            )
            assert got.best_cost == want.best_cost
            assert got.best_strategy == want.best_strategy
            assert got.current_cost == want.current_cost
        assert game.all_costs(profile, engine=engine) == game.all_costs(
            profile, engine=False
        )
        mover = rng.choice([v for v in game.nodes if v not in (0, 5, 11)])
        profile = profile.with_strategy(
            mover, frozenset(rng.sample([v for v in game.nodes if v != mover], 2))
        )
    assert engine.stats["rows_repaired"] > 0


@needs_numpy
@pytest.mark.parametrize(
    "make_game",
    [
        lambda: UniformBBCGame(20, 2),
        lambda: _weighted_game(20, integral=True),
        lambda: _weighted_game(20, integral=False),
    ],
    ids=["uniform-bfs", "weighted-int", "weighted-float"],
)
def test_equilibrium_report_bit_identical_across_backends(make_game):
    game = make_game()
    profile = random_initial_profile(game, seed=9)
    report_py = equilibrium_report(
        game, profile, engine=CostEngine(game, backend="python")
    )
    report_np = equilibrium_report(
        game, profile, engine=CostEngine(game, backend="numpy")
    )
    assert report_np.responses == report_py.responses
    assert report_np.max_regret == report_py.max_regret
    assert type(report_np.max_regret) is float


@needs_numpy
@pytest.mark.parametrize("uniform", [True, False], ids=["bfs", "dijkstra"])
def test_walk_trace_bit_identical_across_backends(uniform):
    """End-to-end walk (syncs, repairs, scoring) pinned across backends."""
    game = UniformBBCGame(40, 2) if uniform else _weighted_game(24)
    initial = random_initial_profile(game, seed=3)
    walk_py = run_best_response_walk(
        game, initial, max_rounds=18, engine=CostEngine(game, backend="python")
    )
    walk_np = run_best_response_walk(
        game, initial, max_rounds=18, engine=CostEngine(game, backend="numpy")
    )
    assert walk_np.final_profile == walk_py.final_profile
    assert walk_np.probes == walk_py.probes
    assert walk_np.deviations == walk_py.deviations
    assert walk_np.reached_equilibrium == walk_py.reached_equilibrium


@needs_numpy
def test_repeated_rechecks_repair_numpy_rows_bit_identically():
    """Single-deviation rechecks on a warmed numpy engine repair, not recompute."""
    game = UniformBBCGame(32, 2)
    rng = random.Random(1)
    nodes = list(game.nodes)
    profile = random_initial_profile(game, seed=7)
    engine_np = CostEngine(game, backend="numpy")
    engine_py = CostEngine(game, backend="python")
    equilibrium_report(game, profile, engine=engine_np)
    equilibrium_report(game, profile, engine=engine_py)
    for _ in range(6):
        node = rng.choice(nodes)
        others = [v for v in nodes if v != node]
        profile = profile.with_strategy(node, frozenset(rng.sample(others, 2)))
        report_np = equilibrium_report(game, profile, engine=engine_np)
        report_py = equilibrium_report(game, profile, engine=engine_py)
        assert report_np.responses == report_py.responses
    assert engine_np.stats["rows_repaired"] > 0


@needs_numpy
def test_all_costs_matches_and_returns_plain_floats():
    for game in (
        UniformBBCGame(24, 2),
        _unit_game(24, 1.5),
        _unit_game(24, 3.0),
        _weighted_game(24),
        _weighted_game(24, integral=False),
    ):
        profile = random_initial_profile(game, seed=4)
        costs_np = CostEngine(game, backend="numpy").all_costs(profile)
        costs_py = CostEngine(game, backend="python").all_costs(profile)
        assert costs_np == costs_py == game.all_costs(profile, engine=False)
        assert all(type(value) is float for value in costs_np.values())


@needs_numpy
@pytest.mark.parametrize("integral", [True, False])
def test_array_mirrors_match_list_space(integral):
    # The numpy backend's CSR arrays describe exactly the list-space CSR,
    # after the first (full) sync and after a single-node step.
    game = _weighted_game(12, integral=integral)
    engine = CostEngine(game, backend="numpy")
    profile = random_initial_profile(game, seed=3)
    for step in range(2):
        if step:
            profile = profile.with_strategy(0, {5, 7})
        engine.sync(profile)
        indptr, indices, lengths = engine._csr
        indptr_np, indices_np, lengths_np = engine._csr_np
        assert indptr_np.tolist() == indptr
        assert indices_np.tolist() == indices
        # One lengths array, in the traversals' label space: exact int64
        # under the integral-lengths licence, float64 otherwise.
        assert lengths_np.dtype == (np.int64 if integral else np.float64)
        assert lengths_np.tolist() == (
            [int(value) for value in lengths] if integral else lengths
        )


@needs_numpy
def test_sweep_evaluator_backend_kwarg_parity(small_uniform_game):
    from repro.core import random_profile

    profiles = [
        random_profile(small_uniform_game, seed=seed) for seed in range(12)
    ]
    sweep_np = SweepEvaluator(
        small_uniform_game, engine=CostEngine(small_uniform_game, backend="numpy")
    )
    sweep_py = SweepEvaluator(
        small_uniform_game, engine=CostEngine(small_uniform_game, backend="python")
    )
    assert sweep_np.engine.backend == "numpy"
    assert sweep_py.engine.backend == "python"
    for profile in profiles:
        assert sweep_np.is_nash(profile) == sweep_py.is_nash(profile)


@needs_numpy
def test_prefetch_is_invisible_to_results():
    """Rows fetched in one batch serve later probes; a cold scorer path agrees
    exactly, on both backends."""
    game = UniformBBCGame(24, 2)
    profile = random_initial_profile(game, seed=2)
    for backend in ("python", "numpy"):
        engine = CostEngine(game, backend=backend)
        engine.sync(profile)
        engine.env_rows(3, [v for v in range(24) if v != 3])
        prefetched = engine.scorer(3)
        cold_engine = CostEngine(game, backend=backend)
        cold_engine.sync(profile)
        cold = cold_engine.scorer(3)
        for seed in range(10):
            rng = random.Random(seed)
            strategy = rng.sample([v for v in range(24) if v != 3], 2)
            assert prefetched.score_ints(list(strategy)) == cold.score_ints(list(strategy))


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("n", [12, 24])
def test_cold_probe_fills_its_rows_in_one_traversal(backend, n, monkeypatch):
    """A cold best-response probe fills every row it reads (its candidates
    plus its current arcs) in one traversal on either backend: n = 12 scores
    through list rows, n = 24 through the batched sub rows."""
    if backend == "numpy" and np is None:
        pytest.skip("numpy is not installed")
    game = UniformBBCGame(n, 2)
    profile = random_initial_profile(game, seed=4)
    engine = CostEngine(game, backend=backend)
    calls = []
    traverse = engine._traverse

    def counting(sources, masks):
        calls.append(len(sources))
        return traverse(sources, masks)

    monkeypatch.setattr(engine, "_traverse", counting)
    result = best_response(game, profile, 0, engine=engine)
    assert calls == [n - 1]
    assert result == best_response(game, profile, 0, engine=False)


@needs_numpy
@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_fast_batch_best_response_never_restacks_its_pair_matrix(backend, monkeypatch):
    """The batched sub-row build returns the combination matrix in candidate
    order, so a fast-batch probe copies no matrix with ``np.stack``."""
    game = UniformBBCGame(24, 2)
    profile = random_initial_profile(game, seed=4)
    engine = CostEngine(game, backend=backend)
    stacks = []
    stack = np.stack

    def counting(*args, **kwargs):
        stacks.append(1)
        return stack(*args, **kwargs)

    monkeypatch.setattr(np, "stack", counting)
    result = best_response(game, profile, 0, engine=engine)
    assert engine.scorer(0).fast_batch
    assert stacks == []
    assert result == best_response(game, profile, 0, engine=False)


def test_list_kernel_walk_derives_every_masked_row(monkeypatch):
    """On the list kernels at n >= 16 only unmasked base rows are traversed:
    a walk's masked rows are all derived from them, and the base rows are
    repaired across syncs instead of refilled.  The walk is unchanged."""
    game = UniformBBCGame(32, 2)
    profile = random_initial_profile(game, seed=6)
    engine = CostEngine(game, backend="python")
    masks = []
    traverse = engine._traverse

    def recording(sources, mask):
        masks.append(mask)
        return traverse(sources, mask)

    monkeypatch.setattr(engine, "_traverse", recording)
    walk = run_best_response_walk(
        game, profile, max_rounds=2, record_steps=True, engine=engine
    )
    assert masks and all(mask == -1 for mask in masks)
    assert engine.stats["base_rows_repaired"] > 0
    assert engine.stats["rows_computed"] > 0
    reference = run_best_response_walk(
        game, profile, max_rounds=2, record_steps=True, engine=False
    )
    assert walk == reference


@needs_numpy
@pytest.mark.parametrize("integral", [True, False], ids=["int", "float"])
def test_numpy_weighted_walk_derives_every_masked_row(integral, monkeypatch):
    """On numpy, weighted games derive their masked rows too: only unmasked
    base rows are traversed, every masked row is a float64 array row derived
    from one, and the report and the walk equal the list kernels' and the
    reference's."""
    game = _weighted_game(20, integral=integral)
    profile = random_initial_profile(game, seed=6)
    engine = CostEngine(game, backend="numpy")
    masks = []
    traverse = engine._traverse

    def recording(sources, mask):
        masks.append(mask)
        return traverse(sources, mask)

    monkeypatch.setattr(engine, "_traverse", recording)
    report = equilibrium_report(game, profile, engine=engine)
    derived = [
        row
        for u, (_, rows) in engine._env_cache.items()
        if u != cost_engine._BASE
        for row in rows.values()
    ]
    assert derived
    assert all(isinstance(row, np.ndarray) and row.dtype == np.float64 for row in derived)
    assert engine.stats["giant_batch_traversals"] > 0
    walk = run_best_response_walk(
        game, profile, max_rounds=2, record_steps=True, engine=engine
    )
    assert masks and all(mask == -1 for mask in masks)
    assert engine.stats["base_rows_repaired"] > 0
    for reference in (CostEngine(game, backend="python"), False):
        expected = equilibrium_report(game, profile, engine=reference)
        assert report.responses == expected.responses
        assert report.max_regret == expected.max_regret
        assert walk == run_best_response_walk(
            game, profile, max_rounds=2, record_steps=True, engine=reference
        )


@needs_numpy
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 12), integral=st.booleans())
def test_numpy_derived_weighted_rows_match_masked_traversals(seed, n, integral):
    """Every numpy-derived weighted row equals the masked ``dijkstra_csr_np``
    row bit for bit, at any n: zero-length arcs exercise the tie rules, and
    a node that nobody links to is an unreachable mask."""
    rng = random.Random(seed)
    choices = _length_choices(integral)
    lengths = {
        (u, v): rng.choice(choices) for u in range(n) for v in range(n) if u != v
    }
    lengths[(0, 1)], lengths[(1, 0)] = 0.0, choices[-1]  # never uniform
    game = BBCGame(nodes=range(n), link_lengths=lengths, default_budget=2.0)
    lonely = rng.randrange(n)
    strategies = {}
    for u in range(n):
        others = [v for v in range(n) if v not in (u, lonely)]
        strategies[u] = frozenset(rng.sample(others, min(2, len(others))))
    engine = CostEngine(game, backend="numpy")
    engine.sync(StrategyProfile(strategies))
    assert engine._derive
    rows = [sorted(strategies[u]) for u in range(n)]
    length_rows = [[lengths.get((u, v), 0.0) for v in range(n)] for u in range(n)]
    indptr, indices, edge_lengths = _csr_with_lengths(rows, length_rows)
    indptr_np, indices_np = npk.csr_arrays(indptr, indices)
    lengths_np = np.asarray(edge_lengths, dtype=np.int64 if integral else np.float64)
    for u in range(n):
        hops = [a for a in range(n) if a != u]
        for a, row in zip(hops, engine.env_rows(u, hops)):
            masked = npk.dijkstra_csr_np(indptr_np, indices_np, lengths_np, n, a, u)
            expected = npk.int_to_float_rows(masked) if integral else masked
            assert row.dtype == np.float64
            assert np.array_equal(row, expected)
    assert engine.stats["base_rows_computed"] == n
    assert engine.stats["rows_computed"] == n * (n - 1)


@needs_numpy
@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
@pytest.mark.parametrize("n", [16, 17])
def test_sub_rows_bit_identical_across_backends(n, weighted):
    """Both backends batch-build the same sub rows from 16 targets up.

    n = 16 leaves 15 targets, below the scorer's fast-path threshold, so
    pairs are scored one by one on list rows; n = 17 builds every sub row
    in one batch.  Either way the costs match across backends and the
    reference.
    """
    game = scoring_game(n, weighted, seed=5)
    node = 2
    profile, _ = sparse_profile(game, 5, node)
    candidates = [v for v in range(n) if v != node]
    pairs = list(itertools.combinations(candidates, 2))
    scorers, costs = [], []
    for backend in ("python", "numpy"):
        engine = CostEngine(game, backend=backend)
        engine.sync(profile)
        scorer = engine.scorer(node)
        assert scorer.fast_batch == (n >= 17)
        if scorer.fast_batch:
            costs.append(scorer.score_combinations(candidates, 2).tolist())
        else:
            costs.append([scorer.score_ints(pair) for pair in pairs])
        scorers.append(scorer)
    scorer_py, scorer_np = scorers
    if scorer_py.fast_batch:
        assert list(scorer_py._sub) == list(scorer_np._sub) == candidates
        for a in candidates:
            row_py, row_np = scorer_py._sub[a], scorer_np._sub[a]
            assert row_py.dtype == row_np.dtype == np.float64
            assert row_py.tobytes() == row_np.tobytes()
    assert costs[0] == costs[1]
    deviated = profile.with_strategy(node, pairs[-1])
    assert costs[0][-1] == game.node_cost(deviated, node)


# --------------------------------------------------------------------- #
# Giant-batch report plans
# --------------------------------------------------------------------- #
def _restricted_candidates(game, per_node=5, seed=13):
    rng = random.Random(seed)
    nodes = list(game.nodes)
    return {
        node: rng.sample([v for v in nodes if v != node], per_node)
        for node in nodes
    }


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize(
    "make_game",
    [
        lambda: UniformBBCGame(20, 2),
        lambda: _unit_game(20, 1.5),
        lambda: _unit_game(20, 3.0),
        lambda: _weighted_game(18, integral=True),
        lambda: _weighted_game(18, integral=False),
    ],
    ids=["uniform-bfs", "unit-1.5", "unit-3.0", "weighted-int", "weighted-float"],
)
def test_giant_batch_report_matches_per_node_and_reference(make_game, backend, monkeypatch):
    """Giant-batch reports are bit-identical to per-node batches and to the
    dict-oracle reference, restricted and unrestricted, on both backends."""
    if backend == "numpy" and np is None:
        pytest.skip("numpy is not installed")
    game = make_game()
    profile = random_initial_profile(game, seed=9)
    for candidates in (None, _restricted_candidates(game)):
        giant = CostEngine(game, backend=backend)
        report_giant = equilibrium_report(
            game, profile, candidates=candidates, engine=giant
        )
        # A zero row limit declines every plan: the per-node prefetch path.
        per_node = CostEngine(game, backend=backend)
        with monkeypatch.context() as patch:
            patch.setattr(cost_engine, "PLAN_ROW_LIMIT", 0)
            report_per_node = equilibrium_report(
                game, profile, candidates=candidates, engine=per_node
            )
        report_ref = equilibrium_report(
            game, profile, candidates=candidates, engine=False
        )
        assert report_giant.responses == report_per_node.responses
        assert report_giant.responses == report_ref.responses
        assert report_giant.max_regret == report_ref.max_regret
        assert giant.stats["giant_batch_traversals"] > 0
        assert per_node.stats["giant_batch_traversals"] == 0


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_giant_batch_under_tiny_budget_evicts_mid_report_and_stays_exact(backend):
    """A budget far below one report's working set forces chunk evictions in
    the middle of the giant-batch report; results must not move, and a
    post-report walk (repair-after-eviction territory) must match the
    reference trace exactly.  On a uniform and a weighted game: the base
    rows the derivation path caches are charged to the same budget and
    evict like any other chunk."""
    if backend == "numpy" and np is None:
        pytest.skip("numpy is not installed")
    # Below one node's 23 rows, let alone the 24 base rows besides them.
    budget = 2_000
    # Budget plus the exempt in-flight node's working set (one row of 24
    # entries, at most 8 bytes each, per first hop).
    bound = budget + 23 * 8 * 24
    for game in (UniformBBCGame(24, 2), _weighted_game(24, integral=True)):
        profile = random_initial_profile(game, seed=5)
        engine = CostEngine(game, backend=backend, memory_budget_bytes=budget)
        report = equilibrium_report(game, profile, engine=engine)
        reference = equilibrium_report(game, profile, engine=False)
        assert report.responses == reference.responses
        assert engine.stats["chunks_evicted"] > 0
        assert engine.cache_bytes() <= bound
        walk = run_best_response_walk(game, profile, max_rounds=10, engine=engine)
        walk_ref = run_best_response_walk(game, profile, max_rounds=10, engine=False)
        assert walk.final_profile == walk_ref.final_profile
        assert walk.probes == walk_ref.probes
        assert walk.deviations == walk_ref.deviations
        assert engine.cache_bytes() <= bound
        if engine._derive:
            assert engine.stats["base_rows_computed"] > 0


def test_swap_stability_report_uses_the_plan_and_matches_reference():
    from repro.core.equilibrium import swap_stability_report

    game = UniformBBCGame(16, 2)
    profile = random_initial_profile(game, seed=11)
    engine = CostEngine(game)
    report = swap_stability_report(game, profile, engine=engine)
    reference = swap_stability_report(game, profile, engine=False)
    assert report.responses == reference.responses
    assert engine.stats["giant_batch_traversals"] > 0


def test_plan_is_cleared_by_profile_changes_and_skips_oversized_reports(monkeypatch):
    game = UniformBBCGame(12, 2)
    profile = random_initial_profile(game, seed=3)
    engine = CostEngine(game)
    planned = engine.plan_report_prefetch(profile)
    assert planned > 0 and engine._plan_chunks
    moved = profile.with_strategy(0, frozenset([1, 2]))
    engine.sync(moved)
    assert engine._plan_version != engine.version and not engine._plan_chunk_of
    # A plan above the row limit is declined outright (per-node prefetch
    # serves those reports).
    monkeypatch.setattr(cost_engine, "PLAN_ROW_LIMIT", 10)
    assert engine.plan_report_prefetch(moved) == 0
    assert not engine._plan_chunk_of
