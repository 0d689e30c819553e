"""Byte-budget regression tests for the engine's chunked row cache.

PR 5's row-*count* cap overflowed silently: crossing it dropped rows with no
signal, and the cap's byte footprint scaled with n² behind the caller's
back.  These tests drive a long random walk of profile edits and restricted
probes at n = 1024 — big enough that real numpy rows, giant-batch chunks,
repairs, and evictions all occur — and pin the new contract: cache bytes
never exceed ``memory_budget_bytes``, evictions are counted (not silent),
evicted rows re-enter via recompute, and a budget-starved engine returns
bit-identical results to an unbudgeted one.
"""

import random

import pytest

from repro.core import UniformBBCGame
from repro.core.best_response import best_response
from repro.engine import CostEngine
from repro.engine.cost_engine import default_memory_budget
from repro.engine.row_store import ChunkLedger
from repro.experiments.workloads import random_initial_profile

try:
    import numpy  # noqa: F401 - presence gates the realistic large-n walk
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the minimal CI leg
    HAVE_NUMPY = False


def test_chunk_ledger_accounting_and_lru_order():
    ledger = ChunkLedger()
    ledger.add(1, 100)
    ledger.add(2, 50)
    ledger.add(1, 25)  # accrues to node 1's existing chunk, touching it
    assert ledger.bytes == 175
    assert 1 in ledger and len(ledger) == 2
    # Node 2's singleton chunk is now least recently used.
    assert ledger.lru_nodes() == [2]
    assert ledger.lru_nodes(exempt={2}) == [1]
    assert ledger.lru_nodes(exempt={1, 2}) is None
    ledger.touch(2)
    assert ledger.lru_nodes() == [1]
    # Grouping moves both into one fresh MRU chunk, keeping their bytes.
    ledger.group([1, 2])
    assert sorted(ledger.lru_nodes()) == [1, 2]
    assert ledger.bytes == 175
    assert ledger.remove(2) == 50  # leaves node 1 alone in the shared chunk
    assert 2 not in ledger and ledger.bytes == 125
    assert ledger.lru_nodes() == [1]
    assert ledger.remove(1) == 125
    assert ledger.bytes == 0 and ledger.lru_nodes() is None


def test_default_budget_is_bounded_at_both_ends():
    assert default_memory_budget(4) == 16 * 2**20
    assert default_memory_budget(16384) == 256 * 2**20
    # In between it tracks the old row cap's byte footprint.
    assert default_memory_budget(1024) == 8 * 1024 * 1024 * 8


@pytest.mark.parametrize(
    "backend, entry_bytes",
    [
        ("python", 8),
        pytest.param(
            "numpy",
            2,
            marks=pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy"),
        ),
    ],
)
def test_uniform_games_cache_one_exact_hop_row_per_pair(backend, entry_bytes):
    """The row byte contract: a uniform game caches one row per (u, a), the
    exact BFS hop row (int16 on numpy below n = 32768, int lists on the list
    kernels), and the ledger charges exactly its payload — 2 n bytes per
    resident numpy row, 8 n per list row — through giant-batch fills,
    per-node fills and repairs alike."""
    n = 300
    game = UniformBBCGame(n, 2)
    profile = random_initial_profile(game, seed=5)
    engine = CostEngine(game, backend=backend)
    rng = random.Random(11)
    candidates = {
        node: rng.sample([v for v in game.nodes if v != node], 4)
        for node in game.nodes
    }
    planned = engine.plan_report_prefetch(profile, {0: candidates[0], 1: candidates[1]})
    # Exactly the listed nodes are planned: their candidates plus current arcs.
    assert planned == sum(len({*candidates[u], *profile.strategy(u)}) for u in (0, 1))
    assert set(engine._plan_chunk_of) == {0, 1}
    for step in range(6):
        node = step % 3  # nodes 0 and 1 planned, node 2 per-node filled
        best_response(game, profile, node, candidates=candidates[node], engine=engine)
        mover = 10 + step
        profile = profile.with_strategy(mover, frozenset(rng.sample(range(20, n), 2)))
    rows = [row for _, cached in engine._env_cache.values() for row in cached.values()]
    assert engine.stats["rows_repaired"] > 0 and engine.stats["giant_batch_rows"] > 0
    assert rows
    for row in rows:
        if backend == "numpy":
            assert row.dtype == numpy.int16
        else:
            assert all(type(h) is int for h in row)
    assert engine.cache_bytes() == entry_bytes * n * len(rows)


@pytest.mark.slow
@pytest.mark.skipif(not HAVE_NUMPY, reason="the large-n walk needs the numpy backend")
def test_long_walk_at_n_1024_stays_within_budget_and_counts_evictions():
    n = 1024
    # 256 KiB: a handful of probes' working sets of 2 KiB int16 hop rows.
    budget = 1 << 18
    game = UniformBBCGame(n, 2)
    profile = random_initial_profile(game, seed=7)
    engine = CostEngine(game, memory_budget_bytes=budget)
    unbudgeted = CostEngine(game)
    assert engine.backend == "numpy"
    rng = random.Random(3)
    nodes = list(game.nodes)
    # Probe a small pool round-robin so later probes revisit nodes whose
    # chunks were evicted in between — the repair-vs-recompute-after-eviction
    # path — while movers range over the whole game.
    probe_pool = rng.sample(nodes, 12)
    for step in range(40):
        node = probe_pool[step % len(probe_pool)]
        candidates = rng.sample([v for v in nodes if v != node], 6)
        got = best_response(game, profile, node, candidates=candidates, engine=engine)
        want = best_response(
            game, profile, node, candidates=candidates, engine=unbudgeted
        )
        assert got.best_cost == want.best_cost
        assert got.best_strategy == want.best_strategy
        # The byte contract, pinned at every step of the walk: eviction runs
        # inside every charging site, so the cache never ends a probe over
        # budget (the exempt in-flight working set is far below 256 KiB).
        assert engine.cache_bytes() <= budget
        # Single-node profile step: the next probes exercise repair and
        # repair-after-eviction paths under budget pressure.
        mover = rng.choice(nodes)
        profile = profile.with_strategy(
            mover, frozenset(rng.sample([v for v in nodes if v != mover], 2))
        )
    stats = engine.snapshot_stats()
    assert stats["chunks_evicted"] > 0
    assert stats["rows_evicted"] > 0
    assert stats["evicted_recomputes"] > 0
    assert stats["cache_bytes"] == engine.cache_bytes() <= budget
    assert stats["memory_budget_bytes"] == budget
