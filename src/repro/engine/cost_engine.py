"""Profile-versioned flat-array cost engine with incremental row repair.

:class:`CostEngine` owns one int-indexed CSR snapshot of the current
profile's edge set, stamped with a monotonically increasing ``version``.
Every distance the game loop needs — environment rows ``d_{G-u}(a, ·)`` for
deviation scoring, full-graph rows for ``all_costs`` — is computed by the
selected traversal backend (the list kernels of
:mod:`repro.graphs.int_kernels` or, via ``backend=``/auto-selection, the
vectorised kernels of :mod:`repro.graphs.int_kernels_np`) and cached against
that version stamp, so repeated probes of an unchanged profile (equilibrium
checks, the stable tail of a best-response walk) pay for each SSSP at most
once.

Invalidation exploits locality twice over.  When :meth:`sync` observes that
exactly one node ``u`` changed its strategy, the environment ``G - u`` is by
definition untouched (it never contained ``u``'s links), so ``u``'s cached
rows are re-stamped to the new version instead of recomputed.  Every *other*
node's rows are no longer dropped either: the engine appends the step to a
bounded edit log and, on the row's next touch, **repairs** it in place with
the dynamic-SSSP kernels (:func:`~repro.graphs.int_kernels.repair_hops_csr`
/ :func:`~repro.graphs.int_kernels.repair_dijkstra_csr`) — bounded
re-relaxation of only the region the arc changes could have reached, instead
of a fresh traversal.  A multi-node change, or a row that has fallen behind
the edit log, resets to a full recompute.

On the list kernels (at n >= 16), and on numpy for weighted games, a
missing masked row is not traversed at all: it is **derived** from the
unmasked *base row* ``d_G(a, ·)`` of its source by
:func:`~repro.graphs.int_kernels.mask_repair_hops` /
:func:`~repro.graphs.int_kernels.mask_repair_dijkstra`, which re-settle only
the nodes whose every shortest path ran through ``u``.  The base rows come
from the backend's unmasked traversal and are cached like any other rows,
one per source under the ``_BASE`` key, so the same stamp, ledger and
edit-log repair keep them current across single-node steps: a round-robin
walk pays one small repair per base row and sync instead of ``n - 1`` fresh
masked traversals per probe.  Numpy's uniform games keep the masked BFS
batch, whose bit-parallel frontiers are cheaper than derivation.

Memory is bounded in *bytes*, not rows: every cached row is charged to a
:class:`~repro.engine.row_store.ChunkLedger` and whole LRU chunks are
evicted once ``memory_budget_bytes`` is exceeded (see
:meth:`CostEngine._evict_over_budget`).  On top of the cache sits the
*giant-batch* plan: :meth:`CostEngine.plan_report_prefetch` records the
whole working set of an equilibrium report up front, and the first probe of
any planned node materialises its entire chunk — potentially hundreds of
masked rows for dozens of nodes — in **one** multi-source, per-row-masked
traversal (on the derivation path, one unmasked traversal of the chunk's
missing base rows) instead of one small batch per node.
"""

from __future__ import annotations

import math
import time
import warnings
import weakref
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.errors import InvalidProfile
from ..reliability.faults import InjectedFault, fault_fires, fault_point
from ..core.objectives import Objective
from ..core.profile import StrategyProfile
from ..graphs.int_kernels import (
    bfs_hops_csr,
    bfs_hops_csr_multi,
    build_csr,
    dijkstra_csr,
    dijkstra_csr_multi,
    mask_repair_dijkstra,
    mask_repair_hops,
    repair_dijkstra_csr,
    repair_hops_csr,
    reverse_csr,
    scaled_float_row,
)
from .indexed import IndexedGame
from .row_store import ChunkLedger

try:  # Optional vectorised backend; every path below degrades gracefully.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the minimal CI leg
    _np = None

if _np is not None:
    from ..graphs import int_kernels_np as _npk
else:  # pragma: no cover - exercised on the minimal CI leg
    _npk = None

Node = Hashable
#: One cached row: BFS hop counts on uniform games, float distances on
#: weighted ones (a list, or a numpy array on the numpy backend).
Row = List[float]

#: How many single-node sync steps the engine remembers for lazy row repair.
#: A cached row more than this many versions behind the snapshot is dropped
#: and recomputed instead (repairing across that many edits would approach a
#: fresh traversal anyway).
REPAIR_LOG_LIMIT = 128

#: Auto backend selection thresholds: below these node counts the list
#: kernels' lower fixed overhead pays (each numpy frontier round costs a
#: handful of array dispatches regardless of size); from them on auto picks
#: numpy.  Weighted games, both backends deriving their masked rows and
#: repairing rows in place, best of three per backend on a 2-CPU x86 host,
#: list time over numpy time: the ``report-dijkstra`` report of
#: ``scripts/bench_speed.py`` measured 0.97 at n=64, 1.10 at 96, 1.43-1.53
#: from 128 to 256 and 2.74 at 1024; a three-round best-response walk, two
#: passes, measured 0.81 and 0.97 at n=96, 1.22 and 1.02 at 128, 1.33 and
#: 0.98 at 192, 1.01 and 0.96 at 256.  So reports favour numpy from n=128
#: and walks tie within this host's noise from n=96 to 256.  The threshold
#: stays 128, where reports turn: perfbench's reduced ``report-weighted``
#: (n=128) checks that the numpy layers run, and moving it belongs with a
#: benchmark change.
NUMPY_BACKEND_MIN_N = 128
NUMPY_BACKEND_MIN_N_UNIFORM = 256

#: Default memory budget bounds for the row cache (see
#: :func:`default_memory_budget`).
DEFAULT_BUDGET_FLOOR_BYTES = 16 * 2**20
DEFAULT_BUDGET_CAP_BYTES = 256 * 2**20

#: Target cached bytes of one giant-batch chunk: big enough to amortise the
#: numpy per-round dispatch across dozens of nodes' rows, small enough that
#: a chunk (and the traversal's transient frontier state, several times the
#: output's bytes) stays cache- and budget-friendly.  Measured on the
#: uniform n=4096 six-candidate report (2-CPU x86 box), 2048-row chunks of
#: int16 hop rows ran the report in 6.2-7.4 s, 8192-row chunks in 7.7-8.4 s.
#: Chunks are additionally capped at a quarter of the engine's byte budget
#: so the in-flight chunk can never crowd out the rest of the cache.
GIANT_CHUNK_TARGET_BYTES = 16 * 2**20

#: A report plan larger than this many masked rows (an unrestricted report
#: at n ≈ 1500+ wants all n·(n-1) of them) is not planned at all — the
#: per-probe fetch (:meth:`CostEngine.probe_scorer`) handles it and the
#: cache budget bounds the rest.
PLAN_ROW_LIMIT = 2_000_000

#: The ``_env_cache`` and ledger key of the unmasked base rows ``d_G(a, ·)``
#: that masked rows are derived from (a node id would be ``>= 0``).
_BASE = -1


def default_memory_budget(n: int) -> int:
    """Default row-cache budget in bytes for an ``n``-node game.

    Re-expresses the PR 5 row-count cap (``max(8n, 2e6/n)`` rows of ``8n``
    bytes each) in bytes, clamped to
    [:data:`DEFAULT_BUDGET_FLOOR_BYTES`, :data:`DEFAULT_BUDGET_CAP_BYTES`].
    The cap is what changes the large-``n`` story: at n = 16384 the row-count
    cap admitted ~17 GB of rows, while 256 MiB holds a giant-batch report's
    rolling working set with room to spare.
    """
    rows = max(8 * n, 2_000_000 // max(n, 1))
    return min(max(rows * n * 8, DEFAULT_BUDGET_FLOOR_BYTES), DEFAULT_BUDGET_CAP_BYTES)


def _payload_nbytes(row) -> int:
    """Byte charge of one cached row (numpy's real nbytes, 8/entry for lists)."""
    nbytes = getattr(row, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    return 8 * len(row)


def resolve_backend(backend, n: int, uniform_lengths: bool = False) -> str:
    """Resolve the tri-state traversal ``backend`` selector to a concrete name.

    ``None`` / ``"auto"`` picks ``"numpy"`` when numpy is importable and the
    game has at least :data:`NUMPY_BACKEND_MIN_N` nodes
    (:data:`NUMPY_BACKEND_MIN_N_UNIFORM` for uniform-length games), else
    ``"python"``; ``"python"`` pins the list kernels (the reference);
    ``"numpy"`` insists on the array kernels and raises when numpy is
    unavailable.  Both backends produce bit-identical rows, costs, and
    traces — the selector only trades constant factors
    (``tests/test_backend_parity.py`` pins the parity).

    The ``engine.numpy-import`` fault site simulates an unavailable numpy
    without uninstalling it: an armed rule makes ``auto`` degrade to the
    list kernels and an explicit ``"numpy"`` raise the same ``ValueError``
    as a genuinely missing import.
    """
    numpy_available = _np is not None and fault_fires("engine.numpy-import") is None
    if backend is None or backend == "auto":
        threshold = NUMPY_BACKEND_MIN_N_UNIFORM if uniform_lengths else NUMPY_BACKEND_MIN_N
        if numpy_available and n >= threshold:
            return "numpy"
        return "python"
    if backend == "python":
        return "python"
    if backend == "numpy":
        if not numpy_available:
            raise ValueError(
                "backend='numpy' requires numpy, which is not installed; "
                "install numpy or pass backend='python'"
            )
        return "numpy"
    raise ValueError(
        f"unknown traversal backend {backend!r}: expected 'auto', 'numpy', or 'python'"
    )


class CostEngine:
    """Flat-array distance/cost engine bound to one game.

    The engine is stateful: :meth:`sync` points it at a profile (diffing
    against the previous one), after which :meth:`cost_of`,
    :meth:`all_costs`, and :meth:`scorer` evaluate costs against the cached
    snapshot.  All results are bit-identical to the reference
    :class:`~repro.core.best_response.DeviationOracle` / dict-BFS path; the
    parity tests in ``tests/test_engine_parity.py`` enforce this.  Cached
    rows are repaired in place across single-node profile steps (see the
    module docstring); every option below is keyword-only.

    ``backend`` selects the traversal kernels: ``"python"`` pins the list
    kernels of :mod:`repro.graphs.int_kernels`, ``"numpy"`` the array kernels of
    :mod:`repro.graphs.int_kernels_np`, and ``None`` / ``"auto"`` (the
    default) picks numpy when it is importable and the game is at or above
    the size crossover (:data:`NUMPY_BACKEND_MIN_N`, or
    :data:`NUMPY_BACKEND_MIN_N_UNIFORM` for uniform-length games).  On the
    numpy backend cached rows are arrays instead of lists (on uniform games
    int16/int64 hop rows, see :meth:`env_rows`); every cost, regret, and
    trace stays bit-identical across backends, and results keep plain
    Python float types.

    ``memory_budget_bytes`` bounds the total bytes of cached rows
    (:func:`default_memory_budget` when ``None``); crossing it evicts whole
    least-recently-used chunks of nodes (:meth:`cache_bytes` /
    ``stats["chunks_evicted"]`` observe it); the budget never changes a
    computed value.

    ``verify_every`` (default ``None`` = off) arms self-verification: every
    ``verify_every``-th cache *hit* recomputes the served environment row
    from scratch and compares elementwise.  A mismatch — a row corrupted
    after it was filled — is never served silently: the engine emits a
    ``RuntimeWarning``, counts it in ``stats["row_verify_failures"]``, drops
    the node's cached rows, and rebuilds from the fresh recompute
    (``stats["rows_verified"]`` counts the probes).  The engine also carries
    the ``engine.row-poison``, ``engine.forced-evict``, ``engine.chunk-build``
    and ``engine.numpy-import`` fault sites of :mod:`repro.reliability` for
    exercising these paths deterministically.
    """

    def __init__(
        self,
        game,
        *,
        backend: Optional[str] = None,
        memory_budget_bytes: Optional[int] = None,
        verify_every: Optional[int] = None,
    ) -> None:
        # Only a weak back-reference to `game`: a strong one would pin the
        # WeakKeyDictionary entry in the per-game engine registry forever.
        self._game_ref = weakref.ref(game)
        self.indexed = IndexedGame(game)
        self.backend = resolve_backend(
            backend, self.indexed.n, self.indexed.uniform_lengths
        )
        self._np_traversal = self.backend == "numpy"
        # Repair beats recompute only while the pending edits reach a small
        # part of the graph: past this many distinct net movers the affected
        # region approaches the whole row and a fresh traversal is cheaper,
        # so _ensure_current drops the rows instead.  Below n=16 a fresh BFS
        # over the tiny row is already cheaper than the kernel's bookkeeping,
        # so only edits that net out to nothing are worth replaying (limit 0).
        # It doubles as a private test hook: tests raise it to force repair
        # across long edit sequences, or set it to -1 to decline every repair
        # so stale rows always drop and recompute.
        n = self.indexed.n
        self._repair_edit_limit = n // 8 if n >= 16 else 0
        # Derive masked rows from cached base rows instead of traversing
        # them (see _derived_rows): on the list kernels from n=16 (below
        # it, for the reason the repair limit is 0), and on numpy for every
        # weighted game.  Numpy's masked giant BFS batch stays on uniform
        # games: their n=1024 six-candidate report took 0.29-0.31 s on it
        # and 0.26-0.28 s derived (best of three, two passes), a tie, but a
        # one-round n=256 walk took 3.7 s on it and 4.9 s derived (best of
        # two).
        self._derive = (
            not self.indexed.uniform_lengths if self._np_traversal else n >= 16
        )
        #: Bumped on every observed profile change; all caches key on it.
        self.version = 0
        # The exact profile object of the last successful sync (profiles are
        # immutable repo-wide), for the identity no-op fast path.
        self._synced_profile: Optional[StrategyProfile] = None
        self._strategies: Optional[List[frozenset]] = None
        # The same strategies in label space (what profiles carry), kept so
        # sync can diff by frozenset equality and only re-map the nodes that
        # actually changed; and the per-node sorted CSR rows, updated the
        # same incremental way.
        self._label_strategies: Optional[List[frozenset]] = None
        self._sorted_rows: List[List[int]] = []
        # The bought graph of the current version, as _rebuild_csr leaves
        # it: ``(indptr, indices, edge_lengths)`` for the list kernels, which
        # repair rows on both backends (``edge_lengths`` is None on uniform
        # games) and, on the numpy backend, the ``(indptr, indices,
        # lengths)`` arrays its traversals read (``lengths`` is int64 when
        # the integral-lengths licence holds, float64 otherwise, None on
        # uniform games).
        self._csr: Tuple[List[int], List[int], Optional[List[float]]] = (
            [0] * (n + 1), [], None
        )
        self._csr_np: Optional[tuple] = None
        # The reverse CSR ``(rev_indptr, rev_tails)`` the repair kernels seed
        # orphaned nodes from (their intact in-boundary, which a forward-only
        # CSR cannot answer); built lazily by _rev_csr, once per version.
        self._rev = None
        # version -> (mover, mover's arcs *before* that step), for lazy
        # repair of rows that are several single-node steps behind.
        self._edits: Dict[int, Tuple[int, frozenset]] = {}
        # masked node u -> (version, {first hop a -> environment row}).  One
        # row per (u, a), in the game's exact domain: on uniform games the
        # BFS hop row (UNREACHED = -1), which repair patches in exact int
        # space and _distances scales to floats only where a cost is read;
        # on weighted games the float distance row.  Key _BASE holds the
        # unmasked base rows {source a -> d_G(a, ·)} of the derivation path.
        self._env_cache: Dict[int, Tuple[int, Dict[int, Row]]] = {}
        # The float unit every hop count is scaled by (None: weighted game),
        # and the bytes one cached row costs, which sizes batched traversals.
        uniform = self.indexed.uniform_lengths
        self._unit = self.indexed.unit_length if uniform else None
        self._row_bytes = (
            _npk.hop_dtype(n).itemsize * n if uniform and self._np_traversal else 8 * n
        )
        # Byte budget for cached rows: a full equilibrium check wants all
        # rows live (total reuse), but at large n that is O(n^2) bytes per
        # dozen nodes, so every cached row is charged to the chunk ledger and
        # whole least-recently-used chunks are evicted once the budget is
        # crossed.
        # Nodes filled together by one giant-batch traversal share a chunk
        # and are evicted together (their rows are views into one backing
        # matrix, so only a full-chunk drop actually releases memory).
        self.memory_budget_bytes = (
            int(memory_budget_bytes)
            if memory_budget_bytes is not None
            else default_memory_budget(self.indexed.n)
        )
        if verify_every is not None and verify_every < 1:
            raise ValueError(
                f"verify_every must be at least 1 (got {verify_every})"
            )
        self.verify_every = verify_every
        self._verify_probes = 0
        self._ledger = ChunkLedger()
        # Nodes that lost cached rows to *budget* eviction (not staleness):
        # their next fill is a recompute the repair path could not have
        # served, surfaced as stats["evicted_recomputes"].
        self._evicted_nodes: Set[int] = set()
        # Giant-batch report plan: valid only while _plan_version matches the
        # snapshot version.  _plan_chunks holds (node, wanted first hops)
        # groups sized against GIANT_CHUNK_TARGET_BYTES; _plan_chunk_of maps
        # each planned node to its chunk index until the chunk runs.
        self._plan_version = -1
        self._plan_chunks: List[List[Tuple[int, List[int]]]] = []
        self._plan_chunk_of: Dict[int, int] = {}
        # (version, {label: cost}) for the whole profile
        self._all_costs_cache: Optional[Tuple[int, Dict[Node, float]]] = None
        #: Cache observability: how many masked environment rows were
        #: computed, served from cache, or repaired in place, how many base
        #: rows were traversed or repaired for the derivation path, and how
        #: each sync classified its diff.
        self.stats: Dict[str, int] = {
            "rows_computed": 0,
            "rows_reused": 0,
            "rows_repaired": 0,
            "base_rows_computed": 0,
            "base_rows_repaired": 0,
            "rows_evicted": 0,
            "chunks_evicted": 0,
            "giant_batch_traversals": 0,
            "giant_batch_rows": 0,
            "evicted_recomputes": 0,
            "noop_syncs": 0,
            "local_syncs": 0,
            "full_syncs": 0,
            "rows_verified": 0,
            "row_verify_failures": 0,
            "chunk_build_failures": 0,
        }
        #: Wall-clock seconds spent inside traversal kernels — every
        #: :meth:`_traverse` call, single rows and verify recomputes included,
        #: plus every masked-row derivation; the bench profile's
        #: traversal-vs-scoring split reads this.
        self.traversal_seconds = 0.0

    def cache_bytes(self) -> int:
        """Current bytes of cached rows charged against the memory budget."""
        return self._ledger.bytes

    def snapshot_stats(self) -> Dict[str, float]:
        """Return the counters plus the live cache/budget/timing gauges.

        ``stats`` itself stays a plain mutable dict (call sites index and
        reset it); this adds the point-in-time gauges the bench prints:
        ``cache_bytes``, ``memory_budget_bytes``, and ``traversal_seconds``.
        """
        snapshot: Dict[str, float] = dict(self.stats)
        snapshot["cache_bytes"] = self.cache_bytes()
        snapshot["memory_budget_bytes"] = self.memory_budget_bytes
        snapshot["traversal_seconds"] = self.traversal_seconds
        return snapshot

    def check_game(self, game) -> None:
        """Raise ``ValueError`` when this engine was built for a different game.

        Two games with the same node count but different weights or lengths
        would otherwise sync successfully and score against the wrong
        snapshot; call sites that accept an explicit engine guard with this.
        """
        if self._game_ref() is not game:
            raise ValueError(
                "this CostEngine was built for a different game instance; "
                "create one with CostEngine(game) or use repro.engine.get_engine(game)"
            )

    # ------------------------------------------------------------------ #
    # Profile synchronisation
    # ------------------------------------------------------------------ #
    def sync(self, profile: StrategyProfile) -> Optional[Tuple[int, ...]]:
        """Point the engine at ``profile``, invalidating as little as possible.

        Diffs the profile against the last synced one: no change keeps the
        version (full cache reuse); a single-node change bumps the version,
        preserves the mover's own environment rows (``G - u`` does not
        contain ``u``'s links) and records the step in the edit log so every
        other node's still-cached rows can be repaired in place on their next
        touch; anything larger resets all caches.  Every real change
        rebuilds the CSR in place, so :attr:`version` is the only handle a
        caller needs: equal versions mean the same synced profile.

        Returns the dense int ids of the nodes whose strategies changed —
        ``()`` for a no-op sync — or ``None`` on the first sync, when there
        is no previous profile to diff against, so callers and
        instrumentation can see how a profile step was classified.
        """
        indexed = self.indexed
        # Identity fast path: profiles are immutable throughout the repo, so
        # re-syncing the very object the engine was synced to cannot change
        # anything — and it is the overwhelmingly common case (equilibrium
        # checks sync the same profile once per node).
        if profile is self._synced_profile:
            self.stats["noop_syncs"] += 1
            return ()
        if len(profile) != indexed.n:
            raise InvalidProfile("profile nodes do not match the game's node set")
        index = indexed.index
        raw = [profile.strategy(label) for label in indexed.labels]

        old_raw = self._label_strategies
        if old_raw is not None:
            # Diff in label space: distinct labels map to distinct ints, so
            # frozenset equality agrees with the int view and only the
            # changed nodes need the label->int remap below.  The C-level
            # list comparison decides the (very common) no-op case without a
            # Python-loop diff — equilibrium checks sync once per node.
            if raw == old_raw:
                self.stats["noop_syncs"] += 1
                self._synced_profile = profile
                return ()
            changed = [u for u in range(indexed.n) if raw[u] != old_raw[u]]
        else:
            changed = None

        old_arcs: List[frozenset] = []
        try:
            if changed is None:
                self._strategies = [
                    frozenset(index[target] for target in targets) for targets in raw
                ]
            else:
                # Remap fully before mutating so an unknown-target failure
                # leaves the engine exactly on its previous snapshot.
                remapped = [
                    frozenset(index[target] for target in raw[u]) for u in changed
                ]
                old_arcs = [self._strategies[u] for u in changed]
                for u, strategy in zip(changed, remapped):
                    self._strategies[u] = strategy
        except KeyError as exc:
            raise InvalidProfile(
                f"profile buys a link to unknown node {exc.args[0]!r}"
            ) from exc

        self._label_strategies = raw
        self.version += 1
        # Any real profile change invalidates an outstanding report plan:
        # its wanted rows were computed against the previous snapshot.
        self._clear_plan()
        self._rebuild_csr(changed)
        self._all_costs_cache = None
        if changed is not None and len(changed) == 1:
            self.stats["local_syncs"] += 1
            changed_node = changed[0]
            self._edits[self.version] = (changed_node, old_arcs[0])
            if len(self._edits) > REPAIR_LOG_LIMIT:
                del self._edits[min(self._edits)]
            # The mover's masked rows never contained its own arcs: when they
            # were current a moment ago, re-stamp them eagerly so sweep-style
            # probes of the mover stay entirely free.  Rows further behind
            # are left stale for lazy repair (the edit log replay skips the
            # mover's own steps anyway).
            entry = self._env_cache.get(changed_node)
            if entry is not None and entry[0] == self.version - 1:
                self._env_cache[changed_node] = (self.version, entry[1])
        else:
            self.stats["full_syncs"] += 1
            self._clear_cached_rows()
            self._edits.clear()
        self._synced_profile = profile
        return tuple(changed) if changed is not None else None

    def _clear_cached_rows(self) -> None:
        self._env_cache.clear()
        self._ledger.clear()
        self._evicted_nodes.clear()

    def _rebuild_csr(self, changed: Optional[List[int]] = None) -> None:
        indexed = self.indexed
        strategies = self._strategies
        if changed is None:
            self._sorted_rows = [sorted(strategies[u]) for u in range(indexed.n)]
        else:
            for u in changed:
                self._sorted_rows[u] = sorted(strategies[u])
        rows = self._sorted_rows
        indptr, indices = build_csr(rows)
        edge_lengths: Optional[List[float]] = None
        if not indexed.uniform_lengths:
            lengths: List[float] = []
            for u, row in enumerate(rows):
                length_row = indexed.length_rows[u]
                lengths.extend(length_row[v] for v in row)
            edge_lengths = lengths
        self._csr = (indptr, indices, edge_lengths)
        self._rev = None
        if self._np_traversal:
            indptr_np, indices_np = _npk.csr_arrays(indptr, indices)
            lengths_np = None
            if edge_lengths is not None:
                # Integer-valued lengths traverse in exact int64 space.
                dtype = _np.int64 if indexed.integral_lengths else _np.float64
                lengths_np = _np.asarray(edge_lengths, dtype=dtype)
            self._csr_np = (indptr_np, indices_np, lengths_np)

    def _rev_csr(self):
        """Return the current version's list reverse CSR ``(rev_indptr, rev_tails)``.

        Built lazily, at most once per profile version, and shared by every
        row repair and derivation at that version on either backend;
        ``_rebuild_csr`` resets it on each sync.
        """
        if self._rev is None:
            self._rev = reverse_csr(self._csr[0], self._csr[1], self.indexed.n)
        return self._rev

    def _require_sync(self) -> None:
        if self._strategies is None:
            raise InvalidProfile("CostEngine.sync(profile) must be called first")

    # ------------------------------------------------------------------ #
    # Lazy repair
    # ------------------------------------------------------------------ #
    def _drop_node(self, u: int) -> int:
        """Remove every cached row of masked node ``u``; returns rows dropped.

        Eviction is always node-granular: a node's rows share one version
        stamp, so :meth:`_repair_node` always repairs a node's whole set.
        """
        entry = self._env_cache.pop(u, None)
        self._ledger.remove(u)
        return len(entry[1]) if entry is not None else 0

    def _evict_over_budget(self, keep: Optional[Set[int]] = None) -> None:
        """Evict whole least-recently-used chunks until back under budget.

        The chunk(s) containing nodes in ``keep`` — the caller's in-flight
        working set, typically the node being probed or the giant-batch
        chunk just filled — are exempt, so the cache may transiently exceed
        the budget by at most that working set (chunk sizing caps it at a
        quarter of the budget).  Evicted nodes are remembered so their next
        fill is surfaced as an eviction-forced recompute.
        """
        while self._ledger.bytes > self.memory_budget_bytes:
            if not self._evict_lru_chunk(keep):
                break

    def _evict_lru_chunk(self, keep: Optional[Set[int]]) -> bool:
        """Drop the least-recently-used chunk not holding ``keep``; False if none."""
        victims = self._ledger.lru_nodes(exempt=keep)
        if victims is None:
            return False
        for node in victims:
            self.stats["rows_evicted"] += self._drop_node(node)
            self._evicted_nodes.add(node)
        self.stats["chunks_evicted"] += 1
        return True

    def _repairable(self, entry_version: int) -> bool:
        edits = self._edits
        if self.version - entry_version > len(edits):
            return False
        return all(v in edits for v in range(entry_version + 1, self.version + 1))

    def _ensure_current(self, u: int) -> None:
        """Bring masked node ``u``'s cached rows up to the current version.

        Still-current entries are untouched; stale entries within the edit
        log are repaired in place (the invalidation contract's repair step);
        anything older is dropped so the normal compute path refills it.
        """
        entry = self._env_cache.get(u)
        if entry is not None:
            if entry[0] == self.version:
                self._ledger.touch(u)
                return
            if self._repairable(entry[0]):
                edits = self._pending_edits(u, entry[0])
                if edits is not None:
                    self._repair_node(u, entry, edits)
                    self._ledger.touch(u)
                    return
            self.stats["rows_evicted"] += self._drop_node(u)

    def _pending_edits(
        self, u: int, entry_version: int
    ) -> Optional[List[Tuple[int, tuple, tuple]]]:
        """Collapse the edit log since ``entry_version`` into net per-mover diffs.

        Replaying in one shot (rather than edit by edit) is what makes
        multi-step repair correct: each intermediate graph only existed
        transiently, but the kernels compare the row's *origin* graph with
        the *current* one directly.  A node that moved away and back nets
        out to nothing; the masked node ``u``'s own steps are skipped
        because ``G - u`` never contained its arcs.

        Returns ``None`` once the distinct movers exceed the repair budget —
        the affected region would approach the whole row, so the caller
        recomputes instead.
        """
        cap = self._repair_edit_limit + 1  # u's own steps are free to skip
        origin: Dict[int, frozenset] = {}
        for version in range(entry_version + 1, self.version + 1):
            mover, arcs_before = self._edits[version]
            if mover not in origin:
                if len(origin) >= cap:
                    return None
                origin[mover] = arcs_before
        edits: List[Tuple[int, tuple, tuple]] = []
        for mover, arcs_before in origin.items():
            if mover == u:
                continue
            arcs_now = self._strategies[mover]
            if arcs_now != arcs_before:
                edits.append(
                    (mover, tuple(arcs_before - arcs_now), tuple(arcs_now - arcs_before))
                )
        if len(edits) > self._repair_edit_limit:
            return None
        return edits

    def _repair_node(
        self,
        u: int,
        entry: Tuple[int, Dict[int, Row]],
        edits: List[Tuple[int, tuple, tuple]],
    ) -> None:
        """Repair ``u``'s cached rows in place across ``edits``, then re-stamp.

        Uniform games repair the exact hop row, weighted games the float
        distance row; either way the cached row object itself is patched.
        Both backends repair with the list kernels over the list CSR, numpy
        rows through the ``_npk`` adapters, which hand the kernel a
        ``memoryview`` of the cached array.  ``u == _BASE`` repairs the
        unmasked base rows, counted apart.
        """
        rows = entry[1]
        counter = "base_rows_repaired" if u == _BASE else "rows_repaired"
        if edits:
            indptr, indices, edge_lengths = self._csr
            rev_indptr, rev_tails = self._rev_csr()
            if self._unit is not None:
                repair = _npk.repair_hops_csr_np if self._np_traversal else repair_hops_csr
                for first_hop, row in rows.items():
                    repair(indptr, indices, row, first_hop, edits, rev_indptr, rev_tails, u)
            else:
                repair = (
                    _npk.repair_dijkstra_csr_np if self._np_traversal else repair_dijkstra_csr
                )
                length_rows = self.indexed.length_rows
                for first_hop, row in rows.items():
                    repair(
                        indptr, indices, edge_lengths, row, first_hop, edits,
                        rev_indptr, rev_tails, length_rows, u,
                    )
            self.stats[counter] += len(rows)
        self._env_cache[u] = (self.version, rows)

    # ------------------------------------------------------------------ #
    # Giant-batch report plan
    # ------------------------------------------------------------------ #
    def _clear_plan(self) -> None:
        self._plan_version = -1
        self._plan_chunks = []
        self._plan_chunk_of = {}

    def plan_report_prefetch(self, profile: StrategyProfile, candidates=None) -> int:
        """Plan one report's whole row working set for giant-batch execution.

        ``candidates`` mirrors :func:`repro.core.equilibrium
        .equilibrium_report`'s restriction dict ``{label: candidate
        labels}``; ``None`` (or a missing node) means every other node.  Per
        node the wanted first hops are those a probe of it reads
        (:meth:`_probe_hops`), grouped into byte-bounded chunks.  The first
        subsequent :meth:`env_rows` call for any planned node, on either
        backend, computes its entire chunk in one :meth:`_fill`.

        Returns the number of planned rows; 0 when the plan would exceed
        :data:`PLAN_ROW_LIMIT` or there is nothing to plan.  Rows, costs,
        and traces are bit-identical with or without a plan — only *when*
        rows are computed changes.  The plan dies with the snapshot: any
        profile change clears it.
        """
        self.sync(profile)
        self._clear_plan()
        pairs: List[Tuple[int, List[int]]] = []
        total = 0
        for u, label in enumerate(self.indexed.labels):
            hops = self._probe_hops(
                u, candidates.get(label) if candidates is not None else None
            )
            if not hops:
                continue
            total += len(hops)
            if total > PLAN_ROW_LIMIT:
                self._clear_plan()
                return 0
            pairs.append((u, hops))
        self._install_plan(pairs)
        return total

    def _probe_hops(self, u: int, candidates: Optional[Iterable[Node]]) -> List[int]:
        """The first hops a probe of ``u`` reads: candidates plus current arcs, minus ``u``.

        ``candidates`` are labels (``None``: every other node); labels
        outside the game are skipped, so scoring surfaces them with its own
        errors.  The one definition of a probe's working set, shared by
        :meth:`plan_report_prefetch` and :meth:`probe_scorer`.
        """
        if candidates is None:
            hops = [a for a in range(self.indexed.n) if a != u]
        else:
            index = self.indexed.index
            hops = [a for a in map(index.get, candidates) if a is not None and a != u]
        hops.extend(self._strategies[u])
        return list(dict.fromkeys(hops))

    def _install_plan(self, pairs: List[Tuple[int, List[int]]]) -> None:
        """Group the planned ``(node, hops)`` pairs into byte-bounded chunks.

        A chunk targets :data:`GIANT_CHUNK_TARGET_BYTES` of stored rows
        (capped at a quarter of the byte budget so a just-filled chunk never
        forces the rest of the cache out); weighted games additionally cap
        the rows per traversal so the Dijkstra kernel's transient per-round
        ``(rows, edges)`` candidate matrix stays bounded.  A single node's
        rows never split across chunks, so one oversized node simply gets a
        chunk to itself.
        """
        per_row = self._row_bytes
        limit = max(
            per_row, min(GIANT_CHUNK_TARGET_BYTES, self.memory_budget_bytes // 4)
        )
        row_cap = None
        if self._unit is None:
            # The Dijkstra kernel's per-round cost is dominated by the
            # (rows, frontier edges) candidate matrix, and converged rows
            # keep paying it until the whole chunk settles — so unlike BFS
            # (bit-parallel, flat per-row cost in the chunk size), weighted
            # chunks get *cheaper* per row as they shrink, down to dispatch
            # overhead.  Measured on 2-out-degree games at n in {1k, 4k},
            # 32-48 rows per traversal is the sweet spot (at or below the
            # per-node batch cost); scale down as the edge count grows.
            # On the derivation path the cap bounds the chunk's unmasked
            # base-row batch and its derived matrix: without it perfbench's
            # report-weighted (n=1024, numpy) peaked at 250 MB resident
            # instead of 209 MB, and ran no faster.
            edges = max(1, len(self._csr[1]))
            row_cap = max(12, min(48, (1 << 19) // edges))
        chunks: List[List[Tuple[int, List[int]]]] = []
        current: List[Tuple[int, List[int]]] = []
        current_bytes = 0
        current_rows = 0
        for u, hops in pairs:
            nbytes = len(hops) * per_row
            if current and (
                current_bytes + nbytes > limit
                or (row_cap is not None and current_rows + len(hops) > row_cap)
            ):
                chunks.append(current)
                current, current_bytes, current_rows = [], 0, 0
            current.append((u, hops))
            current_bytes += nbytes
            current_rows += len(hops)
        if current:
            chunks.append(current)
        self._plan_chunks = chunks
        self._plan_chunk_of = {
            u: i for i, chunk in enumerate(chunks) for u, _ in chunk
        }
        self._plan_version = self.version

    def _maybe_run_plan(self, u: int) -> None:
        """Run ``u``'s planned chunk now, if a current-version plan holds one."""
        if self._plan_version != self.version:
            return
        chunk_index = self._plan_chunk_of.get(u)
        if chunk_index is None:
            return
        chunk = self._plan_chunks[chunk_index]
        self._plan_chunks[chunk_index] = []
        for member, _ in chunk:
            self._plan_chunk_of.pop(member, None)
        try:
            self._run_plan_chunk(u, chunk)
        except InjectedFault:
            # Graceful degradation: a failed giant-chunk build (the
            # `engine.chunk-build` fault site) is absorbed here — the chunk's
            # bookkeeping is already cleared above, so every member simply
            # falls through to the per-node fill path, which is bit-identical
            # to the batched one.
            self.stats["chunk_build_failures"] += 1

    def _run_plan_chunk(self, u: int, chunk: List[Tuple[int, List[int]]]) -> None:
        """Fill every missing planned row of ``chunk`` in one giant batch.

        All members' missing ``(mask, source)`` pairs go through one
        :meth:`_fill`; the members are then
        grouped into one ledger chunk so they age and evict together.  Rows
        already cached (or repaired current by :meth:`_ensure_current`) are
        left untouched, which keeps the fill bit-identical to the per-row
        path.
        """
        fault_point("engine.chunk-build", key=u)
        work: List[Tuple[int, int]] = []
        for member, hops in chunk:
            self._ensure_current(member)
            entry = self._env_cache.get(member)
            cached = entry[1] if entry is not None else ()
            work.extend((member, a) for a in hops if a not in cached)
        members = [member for member, _ in chunk]
        if work:
            self._fill(work)
            self.stats["giant_batch_traversals"] += 1
            self.stats["giant_batch_rows"] += len(work)
        # One ledger chunk for the whole batch, exempt from the eviction its
        # own bytes may trigger.  The base rows it was derived from are not:
        # no filled row refers to them, so they age and evict like any chunk.
        self._ledger.group(members)
        if self._ledger.bytes > self.memory_budget_bytes:
            self._evict_over_budget(keep=set(members))

    # ------------------------------------------------------------------ #
    # Distance rows: one kernel dispatch, one fill path
    # ------------------------------------------------------------------ #
    def _traverse(self, sources: List[int], masks) -> list:
        """Run one traversal: the rows of ``sources``, aligned with them.

        The engine's only call into a traversal kernel.  ``masks`` is the
        node every row avoids (``-1``: none) or, for a batch, a list aligned
        with ``sources``.  One source runs the backend's single-source
        kernel, more run its multi-source kernel.  Uniform games get exact
        BFS hop rows (``UNREACHED`` = -1; :func:`~repro.graphs.int_kernels_np
        .hop_dtype` arrays on numpy, int lists on the list kernels), which is
        what the cache stores and repairs.  Weighted games get float
        distance rows; integer lengths traverse in exact int64 before one
        conversion (``float(int)`` is exact under
        :attr:`IndexedGame.integral_lengths`).  Every call is charged to
        :attr:`traversal_seconds`.
        """
        n = self.indexed.n
        uniform = self._unit is not None
        single = len(sources) == 1
        start = time.perf_counter()
        if self._np_traversal:
            indptr, indices, lengths = self._csr_np
            if uniform and single:
                rows = _npk.bfs_hops_csr_np(indptr, indices, n, sources[0], masks)[None]
            elif uniform:
                rows = _npk.bfs_hops_csr_multi(indptr, indices, n, sources, masks)
            else:
                if single:
                    rows = _npk.dijkstra_csr_np(
                        indptr, indices, lengths, n, sources[0], masks
                    )[None]
                else:
                    rows = _npk.dijkstra_csr_multi(
                        indptr, indices, lengths, n, sources, masks
                    )
                if lengths.dtype.kind == "i":
                    rows = _npk.int_to_float_rows(rows)
        else:
            indptr, indices, lengths = self._csr
            if uniform and single:
                rows = [bfs_hops_csr(indptr, indices, n, sources[0], masks)]
            elif uniform:
                rows = bfs_hops_csr_multi(indptr, indices, n, sources, masks)
            elif single:
                rows = [dijkstra_csr(indptr, indices, lengths, n, sources[0], masks)]
            else:
                rows = dijkstra_csr_multi(indptr, indices, lengths, n, sources, masks)
        self.traversal_seconds += time.perf_counter() - start
        return rows

    def _distances(self, rows):
        """Float distances (``inf`` = unreachable) of cached rows.

        The engine's one conversion out of its row domain, applied only
        where a cost is read.  A uniform game's hop row (a list, or an array
        row or matrix) becomes ``float(h) * unit`` per entry, the same single
        IEEE product the reference path computes; weighted rows already are
        float distances and pass through unchanged.
        """
        unit = self._unit
        if unit is None:
            return rows
        if isinstance(rows, list):
            return scaled_float_row(rows, unit)
        return _npk.scaled_float_rows(rows, unit)

    def _fill(self, work: List[Tuple[int, int]]) -> list:
        """Compute and cache every ``(u, first_hop)`` row of ``work`` in one traversal.

        On the derivation path (list kernels at n >= 16, numpy weighted
        games) the rows are derived from the base rows instead
        (:meth:`_derived_rows`).  Stores one row
        per entry, charges each node's bytes to the ledger,
        and counts ``rows_computed`` plus the ``evicted_recomputes`` of
        nodes budget eviction had emptied.  Returns the rows in ``work``
        order.  Eviction, and the ``keep`` set it spares, stays with the
        caller.
        """
        if self._derive:
            rows = self._derived_rows(work)
        elif len(work) == 1:
            u, a = work[0]
            rows = self._traverse([a], u)
        else:
            rows = self._traverse([a for _, a in work], [u for u, _ in work])
        # Every row of one traversal has length n, so the per-row byte cost
        # is one computation, not one per row.
        nbytes = _payload_nbytes(rows[0])
        positions: Dict[int, List[int]] = {}
        for i, (u, _) in enumerate(work):
            positions.setdefault(u, []).append(i)
        for u, filled in positions.items():
            # Callers bring u current with _ensure_current first, so an
            # existing entry already carries this version.
            cached = self._env_cache.setdefault(u, (self.version, {}))[1]
            for i in filled:
                cached[work[i][1]] = rows[i]
            self._ledger.add(u, nbytes * len(filled))
            if u in self._evicted_nodes:
                self._evicted_nodes.discard(u)
                self.stats["evicted_recomputes"] += len(filled)
        self.stats["rows_computed"] += len(work)
        return rows

    def _base_rows(self, sources: List[int]) -> Dict[int, Row]:
        """The current unmasked base rows ``{a: d_G(a, ·)}``, covering ``sources``.

        Brings the ``_BASE`` entry current (repairing it across the edit log
        like any node's rows), then fills every missing source in one
        unmasked :meth:`_traverse`, charged to the ledger under ``_BASE``
        and counted in ``base_rows_computed``.
        """
        self._ensure_current(_BASE)
        entry = self._env_cache.get(_BASE)
        cached = entry[1] if entry is not None else {}
        missing = [a for a in dict.fromkeys(sources) if a not in cached]
        if missing:
            rows = self._traverse(missing, -1)
            cached = self._env_cache.setdefault(_BASE, (self.version, {}))[1]
            cached.update(zip(missing, rows))
            self._ledger.add(_BASE, _payload_nbytes(rows[0]) * len(rows))
            self._evicted_nodes.discard(_BASE)
            self.stats["base_rows_computed"] += len(rows)
        return cached

    def _derived_rows(self, work: List[Tuple[int, int]]) -> List[Row]:
        """Derive every masked row ``(u, a)`` of ``work`` from base row ``a``, in order.

        The fill of the derivation path (list kernels at n >= 16, numpy
        weighted games): each ``d_{G-u}(a, ·)`` starts as a copy of
        ``d_G(a, ·)`` and is re-settled in place by the list mask-repair
        kernels, so the base row stays untouched; bit-identical to the
        masked traversal, which :meth:`_verify_row` still runs.  On numpy
        the base rows are copied array to array into one ``(len(work), n)``
        matrix, like a traversal's, and the kernels edit each matrix row
        through a ``memoryview``, so a row costs its re-settled region, not
        ``n`` conversions.  Charged to :attr:`traversal_seconds` like a
        traversal.
        """
        bases = self._base_rows([a for _, a in work])
        start = time.perf_counter()
        indptr, indices, lengths = self._csr
        rev_indptr, rev_tails = self._rev_csr()
        if self._np_traversal:
            rows = _np.stack([bases[a] for _, a in work])
            targets = map(memoryview, rows)
        else:
            rows = targets = [list(bases[a]) for _, a in work]
        if self._unit is not None:
            for (u, a), row in zip(work, targets):
                mask_repair_hops(indptr, indices, row, a, u, rev_indptr, rev_tails)
        else:
            length_rows = self.indexed.length_rows
            for (u, a), row in zip(work, targets):
                mask_repair_dijkstra(
                    indptr, indices, lengths, row, a, u,
                    rev_indptr, rev_tails, length_rows,
                )
        self.traversal_seconds += time.perf_counter() - start
        return rows

    def env_rows(self, u: int, first_hops: Sequence[int]) -> List[Row]:
        """Return the rows ``d_{G-u}(a, ·)`` of the distinct ``first_hops``, in order.

        The engine's one row accessor, the same on both backends: it runs
        ``u``'s planned chunk (:meth:`plan_report_prefetch`), repairs ``u``'s
        stale rows, fills every missing row in one :meth:`_fill` traversal,
        evicts over budget sparing ``u``'s chunk, and serves the rest from
        the cache, counting ``rows_reused`` and sampling ``verify_every``.

        Rows are in the game's exact domain: on uniform games the BFS hop
        counts (``UNREACHED`` = -1; each distance is ``unit`` times its
        count), on weighted games the float distances (``inf`` =
        unreachable).  Each returned row is the *cached object itself* —
        shared read-only by contract (lint rule RPR006).  Callers never
        mutate it: scorers derive new rows from it (see
        :meth:`StrategyScorer._through_row`), and a mutated row would
        corrupt every later read at this version.
        """
        self._require_sync()
        self._maybe_run_plan(u)
        if fault_fires("engine.forced-evict", key=u) is not None:
            # Adversarial-eviction fault site: drop the least-recently-used
            # chunk right under the probe (the probed node's own chunk is
            # exempt).  Costs stay bit-identical — evicted rows recompute.
            self._evict_lru_chunk(keep={u})
        self._ensure_current(u)
        # _ensure_current repaired or dropped anything stale, so an entry
        # here always carries the current version.
        entry = self._env_cache.get(u)
        cached = entry[1] if entry is not None else {}
        missing = [a for a in dict.fromkeys(first_hops) if a not in cached]
        filled: Dict[int, Row] = {}
        if missing:
            filled = dict(zip(missing, self._fill([(u, a) for a in missing])))
            cached = self._env_cache[u][1]
            for a, row in filled.items():
                if fault_fires("engine.row-poison", key=(u, a)) is not None:
                    # Corruption fault site: cache a subtly-wrong copy while
                    # this call still returns the correct row — modelling a
                    # row that goes bad *after* it was filled.  Only
                    # verify_every sampling can catch it on a later hit.
                    cached[a] = self._poisoned_copy(row)
            if self._ledger.bytes > self.memory_budget_bytes:
                self._evict_over_budget(keep={u})
        rows = [filled[a] if a in filled else cached[a] for a in first_hops]
        self.stats["rows_reused"] += len(first_hops) - len(filled)
        if self.verify_every is not None:
            for i, a in enumerate(first_hops):
                if a not in filled:
                    self._verify_probes += 1
                    if self._verify_probes >= self.verify_every:
                        self._verify_probes = 0
                        rows[i] = self._verify_row(u, a, rows[i])
        return rows  # repro: readonly — the cached rows themselves, never mutated by callers

    def _poisoned_copy(self, row: Row) -> Row:
        """A copy of ``row`` with its first reachable entry nudged up by one.

        Reachable means ``0 <= v < inf``, which covers hop rows (unreached
        ``-1``) and float distance rows (unreached ``inf``) alike.
        """
        poisoned = row.copy()
        for i in range(len(poisoned)):
            if 0 <= poisoned[i] < math.inf:
                poisoned[i] += 1
                break
        return poisoned

    def _verify_row(self, u: int, first_hop: int, row: Row) -> Row:
        """Recompute a served cache hit from scratch and compare elementwise.

        A mismatch means the cached copy was corrupted after it was filled.
        The engine never serves the bad row silently: it warns, counts the
        failure in ``stats["row_verify_failures"]``, drops every cached row
        of ``u`` (plus the whole-profile cost cache, which may have been
        built from the bad row), and returns the fresh row.  The fresh row is
        not cached: the node's next probe refills through :meth:`_fill`,
        which charges the ledger and counts the recompute like any fill.
        """
        self.stats["rows_verified"] += 1
        fresh = self._traverse([first_hop], u)[0]
        n = len(row)
        clean = n == len(fresh) and all(
            float(row[i]) == float(fresh[i]) for i in range(n)
        )
        if clean:
            return row
        self.stats["row_verify_failures"] += 1
        warnings.warn(
            f"CostEngine self-verification: cached row (node {u}, first hop "
            f"{first_hop}) does not match a fresh recompute; rebuilding the "
            "node's caches",
            RuntimeWarning,
            stacklevel=3,
        )
        self.stats["rows_evicted"] += self._drop_node(u)
        self._all_costs_cache = None
        return fresh

    # ------------------------------------------------------------------ #
    # Cost evaluation
    # ------------------------------------------------------------------ #
    def scorer(self, node: Node) -> "StrategyScorer":
        """Return a :class:`StrategyScorer` bound to ``node`` at the current version."""
        self._require_sync()
        try:
            u = self.indexed.index[node]
        except KeyError:
            raise InvalidProfile(f"node {node!r} is not part of this game") from None
        return StrategyScorer(self, u)

    def probe_scorer(
        self, node: Node, candidates: Optional[Iterable[Node]] = None
    ) -> "StrategyScorer":
        """Return ``node``'s scorer with every row a probe of it reads in hand.

        The rows are those of :meth:`_probe_hops` — ``candidates`` (labels;
        ``None`` = every other node) plus the node's current arcs — fetched
        by one :meth:`env_rows` call, so a cold probe fills all of them in
        one traversal on either backend.  Rows, costs, and traces are
        bit-identical to fetching them one by one.
        """
        scorer = self.scorer(node)
        hops = self._probe_hops(scorer.u, candidates)
        scorer._env.update(zip(hops, self.env_rows(scorer.u, hops)))
        return scorer

    def cost_of(self, node: Node, strategy: Iterable[Node]) -> float:
        """Return ``node``'s cost when it plays ``strategy`` (labels) against the synced profile."""
        return self.scorer(node).score(strategy)

    def all_costs(self, profile: StrategyProfile) -> Dict[Node, float]:
        """Return every node's cost under ``profile`` (cached per version)."""
        self.sync(profile)
        cached = self._all_costs_cache
        if cached is not None and cached[0] == self.version:
            return dict(cached[1])
        indexed = self.indexed
        n = indexed.n
        use_np = self._np_traversal
        chunk_rows = 1
        if use_np:
            # Batched traversals for all n unmasked rows, sliced so one
            # slice's row matrix stays around GIANT_CHUNK_TARGET_BYTES (a
            # single n-source batch at n = 16384 would be a 2 GiB matrix);
            # each row is converted to the float list form _aggregate_row
            # expects one at a time, so the costs (and their plain-float
            # types) match the per-row path — multi-kernel rows do not
            # depend on how the sources are batched.
            chunk_rows = max(1, min(n, GIANT_CHUNK_TARGET_BYTES // self._row_bytes))
            if self._unit is None:
                edges = max(1, len(self._csr[1]))
                chunk_rows = min(
                    chunk_rows, max(16, GIANT_CHUNK_TARGET_BYTES // (8 * edges))
                )
        labels = indexed.labels
        costs = {}
        for lo in range(0, n, chunk_rows):
            sources = list(range(lo, min(n, lo + chunk_rows)))
            for u, row in zip(sources, self._traverse(sources, -1)):
                row = self._distances(row)
                costs[labels[u]] = self._aggregate_row(
                    u, row.tolist() if use_np else row
                )
        self._all_costs_cache = (self.version, costs)
        return dict(costs)

    def social_cost(self, profile: StrategyProfile) -> float:
        """Return the total cost over all nodes under ``profile``."""
        return sum(self.all_costs(profile).values())

    def _aggregate_row(self, u: int, row: Row) -> float:
        indexed = self.indexed
        targets = indexed.target_rows[u]
        weights = indexed.target_weight_rows[u]
        penalty = indexed.penalty
        inf = math.inf
        if indexed.objective is Objective.SUM:
            total = 0.0
            for t, w in zip(targets, weights):
                d = row[t]
                total += w * (d if d < inf else penalty)
            return total
        if not targets:
            return 0.0
        worst = -inf
        for t, w in zip(targets, weights):
            d = row[t]
            value = w * (d if d < inf else penalty)
            if value > worst:
                worst = value
        return float(worst)


class StrategyScorer:
    """Fast repeated scoring of candidate strategies for one node.

    Bound to one ``(engine, version, node)``; per candidate first hop ``a``
    it lazily materialises the *through* row ``l(u, a) + d_{G-u}(a, ·)`` so
    that scoring a strategy is nothing but elementwise mins over cached
    lists.  For SUM-objective, unit-weight nodes of games whose
    disconnection penalty dominates every finite distance (every default
    game), it instead keeps per-hop penalty-substituted target slices
    (*sub rows*) — value-identical to the reference loop because
    substituting the penalty for ``inf`` commutes with ``min`` exactly when
    the penalty is at least every finite distance.  Without numpy or exact
    sums they are lists reduced with C-level ``sum(map(min, ...))``; on
    ``fast_batch`` scorers (numpy importable, :attr:`IndexedGame.exact_sums`)
    they are float64 arrays, every missing one built in one batch from the
    cached rows on either backend (:meth:`_build_sub_rows`), and whole
    strategy sets are scored by :meth:`score_combinations`.  Invalid to use
    after the engine syncs to a different profile.
    """

    __slots__ = (
        "engine",
        "u",
        "index",
        "targets",
        "weights",
        "penalty",
        "is_sum",
        "unit_weights",
        "fast_sum",
        "fast_batch",
        "identity_labels",
        "_length_row",
        "_env",
        "_through",
        "_sub",
        "_version",
    )

    def __init__(self, engine: CostEngine, u: int) -> None:
        self.engine = engine
        self.u = u
        indexed = engine.indexed
        self.index = indexed.index
        self.targets = indexed.target_rows[u]
        self.weights = indexed.target_weight_rows[u]
        self.penalty = indexed.penalty
        self.is_sum = indexed.objective is Objective.SUM
        # Multiplying by an exact 1.0 weight is the identity, so the unit-weight
        # fast path below stays bit-identical to the reference oracle.
        self.unit_weights = indexed.unit_weight_nodes[u]
        # Below ~16 targets the fixed per-call overhead of the substituted-row
        # machinery (and of numpy) loses to the plain loops, so small games
        # stay on the original code path end to end.
        self.fast_sum = (
            self.is_sum
            and self.unit_weights
            and indexed.penalty_dominates
            and len(self.targets) >= 16
        )
        # The batch path sums in vectorised (pairwise) order, which is only
        # bit-identical to the reference's left-to-right loop when every sum
        # is exact — see IndexedGame.exact_sums.
        self.fast_batch = self.fast_sum and indexed.exact_sums and _np is not None
        self.identity_labels = indexed.identity_labels
        self._length_row = indexed.length_rows[u]
        # The engine rows this scorer has read, and the rows derived from
        # them.  Derived rows live with the scorer (one probe), not the
        # engine: they are O(n) rebuilds from the cached rows, which is all
        # a later probe of the same node needs.
        self._env: Dict[int, Row] = {}
        self._through: Dict[int, Row] = {}
        self._sub: Optional[Dict[int, Row]] = {} if self.fast_sum else None
        self._version = engine.version

    def _env_rows(self, hops: List[int]) -> List[Row]:
        """The engine rows of ``hops``; each is read from the engine once per scorer."""
        env = self._env
        missing = [a for a in hops if a not in env]
        if missing:
            env.update(zip(missing, self.engine.env_rows(self.u, missing)))
        return [env[a] for a in hops]

    def _through_row(self, first_hop: int) -> Row:
        row = self._through.get(first_hop)
        if row is None:
            hop_length = self._length_row[first_hop]
            engine = self.engine
            env = engine._distances(self._env_rows([first_hop])[0])
            if engine._np_traversal:
                # Numpy-backend rows are float64 arrays; the vectorised sum
                # is the same one IEEE addition per entry, and tolist() keeps
                # through rows (and everything scored off them) plain Python
                # floats on every backend.
                row = (hop_length + env).tolist()
            else:
                row = [hop_length + d for d in env]
            self._through[first_hop] = row
        return row

    def _build_sub_rows(self, hops: List[int]):
        """Build the sub rows of ``hops`` in one broadcast, in ``hops`` order.

        The one sub-row builder of ``fast_batch`` scorers (its callers gate
        on that), on both backends; returns ``None`` when ``hops`` is empty.
        A sub row the scorer already holds is rebuilt, to an equal row, so
        that the returned batch can serve as a combination matrix as it
        stands.  The cached rows (int16 arrays or int lists of hops on
        uniform games, float arrays or lists on weighted ones) become one
        matrix, its target columns are gathered first, then scaled and
        summed; each entry is the same ``l(u, a) + float(h) * unit`` and the
        same penalty test as :meth:`_sub_row`'s list path, so the rows
        (stored as views of the returned ``(len(hops), targets)`` batch)
        are bit-identical.
        """
        if not hops:
            return None
        engine = self.engine
        u = self.u
        envs = _np.array(self._env_rows(hops))
        if len(self.targets) == engine.indexed.n - 1:
            # Complete target set: dropping column u is two contiguous
            # block copies, far cheaper than a fancy-index gather of
            # 99.9% of the matrix.
            gathered = _np.concatenate((envs[:, :u], envs[:, u + 1:]), axis=1)
        else:
            gathered = envs[:, self.targets]
        batch = engine._distances(gathered)
        hop_lengths = _np.array(
            [self._length_row[a] for a in hops], dtype=_np.float64
        )
        batch += hop_lengths[:, None]
        batch[_np.isinf(batch)] = self.penalty
        sub = self._sub
        for j, a in enumerate(hops):
            sub[a] = batch[j]
        return batch

    def _sub_row(self, first_hop: int) -> List[float]:
        # List sub rows of fast_sum scorers without the batch path
        # (fast_batch scorers build theirs in _build_sub_rows).
        through = self._through_row(first_hop)
        penalty = self.penalty
        inf = math.inf
        row = [
            d if d < inf else penalty
            for d in map(through.__getitem__, self.targets)
        ]
        self._sub[first_hop] = row
        return row

    def score_combinations(self, candidates: List[int], size: int):
        """Score every size-``size`` combination of ``candidates`` (dense ints).

        Returns a numpy vector of costs in ``itertools.combinations`` order —
        the exact order :meth:`BBCGame.feasible_strategies` enumerates when
        :meth:`BBCGame.combination_plan` applies.  Pairs are scored one
        block per first member ``i``: ``min(M[i], M[i+1:])`` summed row by
        row into the next ``count - 1 - i`` slots, so no pair matrix is ever
        gathered and each cost is the sum of one contiguous row.  Only
        valid on ``fast_batch`` scorers (exact integer-valued sums), where
        the vectorised reduction is bit-identical to scoring one by one.
        The vector is freshly built on every call and owned by the caller;
        the engine keeps no reference to it.
        """
        engine = self.engine
        if self._version != engine.version:
            raise InvalidProfile("scorer is stale: the engine synced to a new profile")
        if not candidates:
            return _np.empty(0)
        # One batch over every candidate is the combination matrix, in
        # candidate order; rebuilding the few sub rows a probe already
        # holds (its current arcs) is far cheaper than re-stacking it.
        matrix = self._build_sub_rows(candidates)
        if size == 1:
            return matrix.sum(axis=1)
        count = len(candidates)
        costs = _np.empty(count * (count - 1) // 2)
        end = 0
        for i in range(count - 1):
            start, end = end, end + count - 1 - i
            _np.minimum(matrix[i], matrix[i + 1:]).sum(axis=1, out=costs[start:end])
        return costs

    def score(self, strategy: Iterable[Node]) -> float:
        """Return the node's cost for a strategy given as node *labels*."""
        if self.identity_labels:
            return self.score_ints(strategy)
        index = self.index
        return self.score_ints([index[target] for target in strategy])

    def score_ints(self, strategy: Iterable[int]) -> float:
        """Return the node's cost for a strategy given as dense int ids."""
        if self._version != self.engine.version:
            raise InvalidProfile("scorer is stale: the engine synced to a new profile")
        if self.fast_sum:
            sub = self._sub
            strategy = list(strategy)
            if self.fast_batch:
                self._build_sub_rows(
                    list(dict.fromkeys(a for a in strategy if a not in sub))
                )
            rows = []
            for a in strategy:
                row = sub.get(a)
                if row is None:
                    row = self._sub_row(a)
                rows.append(row)
            num_rows = len(rows)
            if num_rows == 0:
                total = 0.0
                for w in self.weights:
                    total += w * self.penalty
                return total
            if self.fast_batch:
                if num_rows == 2:
                    return float(_np.minimum(rows[0], rows[1]).sum())
                if num_rows == 1:
                    return float(rows[0].sum())
                return float(_np.minimum.reduce(rows).sum())
            if num_rows == 2:
                return sum(map(min, rows[0], rows[1]))
            if num_rows == 1:
                return sum(rows[0])
            return sum(map(min, *rows))
        through = self._through
        rows = []
        for a in strategy:
            row = through.get(a)
            if row is None:
                row = self._through_row(a)
            rows.append(row)
        targets = self.targets
        weights = self.weights
        penalty = self.penalty
        inf = math.inf
        num_rows = len(rows)
        if self.is_sum:
            total = 0.0
            if num_rows == 2:
                row_a, row_b = rows
                if self.unit_weights:
                    for t in targets:
                        da = row_a[t]
                        db = row_b[t]
                        d = da if da < db else db
                        total += d if d < inf else penalty
                else:
                    for t, w in zip(targets, weights):
                        da = row_a[t]
                        db = row_b[t]
                        d = da if da < db else db
                        total += w * (d if d < inf else penalty)
            elif num_rows == 1:
                row = rows[0]
                if self.unit_weights:
                    for t in targets:
                        d = row[t]
                        total += d if d < inf else penalty
                else:
                    for t, w in zip(targets, weights):
                        d = row[t]
                        total += w * (d if d < inf else penalty)
            elif num_rows == 0:
                for w in weights:
                    total += w * penalty
            else:
                for t, w in zip(targets, weights):
                    best = inf
                    for row in rows:
                        d = row[t]
                        if d < best:
                            best = d
                    total += w * (best if best < inf else penalty)
            return total
        # MAX objective.
        if not targets:
            return 0.0
        worst = -inf
        for t, w in zip(targets, weights):
            best = inf
            for row in rows:
                d = row[t]
                if d < best:
                    best = d
            value = w * (best if best < inf else penalty)
            if value > worst:
                worst = value
        return float(worst)
