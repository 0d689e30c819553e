"""Flat-array distance/cost engine (index + version-stamp invalidation).

This subsystem is the performance core of the reproduction.  It replaces the
per-oracle rebuild of hash-dict :class:`~repro.graphs.DiGraph` environments
with one shared, int-indexed CSR snapshot of the profile plus caches that are
invalidated by a version stamp instead of by reconstruction.

**The index contract.**  :class:`~repro.engine.indexed.IndexedGame` maps the
game's node labels to dense ints ``0..n-1`` exactly once, in declaration
order, and materialises link lengths and the positive-preference target
lists (with their weights) as flat per-node rows.  Every traversal kernel
(the list kernels of :mod:`repro.graphs.int_kernels` and the numpy kernels
of :mod:`repro.graphs.int_kernels_np` alike) and every cache in
:class:`~repro.engine.cost_engine.CostEngine` speaks ints; labels only appear
at the public API boundary.  The mapping is immutable for the lifetime of the
engine, so cached rows indexed by int stay meaningful across profile changes.

**The version-stamp contract.**  A :class:`CostEngine` carries a
monotonically increasing ``version``.  :meth:`CostEngine.sync` diffs the
incoming profile against the engine's snapshot and:

* *no node changed* — the version is unchanged and every cache
  (environment-distance rows ``d_{G-u}(a, ·)``, the all-costs table) remains
  valid, so an equilibrium check immediately after a walk, or repeated stable
  probes within a walk, re-use every SSSP already paid for;
* *exactly one node ``u`` changed* — the version is bumped, ``u``'s own
  environment rows are re-stamped (``G - u`` never contained ``u``'s links,
  so a local change by ``u`` cannot invalidate ``u``'s own deviation
  geometry), and the step — ``u`` plus its arcs before the step — is
  appended to a bounded **edit log** instead of dropping the other nodes'
  rows;
* *more than one node changed* — the version is bumped, all caches are
  dropped, and the edit log is cleared.

**The repair contract** (new in PR 4).  A cached row whose stamp is behind
the engine's version is not discarded on touch: the engine collapses the
edit log since the row's stamp into net per-mover arc diffs (a node that
moved away and back contributes nothing; the masked node's own steps never
matter) and *repairs* the row in place with the dynamic-SSSP kernels
:func:`repro.graphs.int_kernels.repair_hops_csr` /
:func:`repro.graphs.int_kernels.repair_dijkstra_csr` — bounded
re-relaxation of only the region the arc changes can reach, seeded from the
region's intact in-boundary (read off a reverse CSR the engine builds
lazily, once per version, on both backends).  The engine caches exactly one row per ``(u, a)``, in the game's
exact domain: on uniform-length games the BFS hop row (``UNREACHED`` = -1;
int16 arrays on numpy up to n = 32767, int64 above, int lists on the list
kernels), on weighted games the float distance row.  A hop row repairs in
exact int space, and a float is made from it only where a cost is read
(``float(h) * unit``, one helper, ``CostEngine._distances``), so repaired
rows are **bit-identical** to recomputation.

**The derivation contract** (list kernels at n >= 16; numpy weighted
games at every n).  There a missing masked row is never traversed:
``d_{G-u}(a, ·)`` is *derived* from the unmasked *base row* ``d_G(a, ·)`` by
:func:`repro.graphs.int_kernels.mask_repair_hops` /
:func:`repro.graphs.int_kernels.mask_repair_dijkstra`, which reset only the
nodes whose every shortest path from ``a`` ran through ``u`` and re-settle
them from their intact in-boundary, in place on a copy of the base row;
the result is bit-identical to the masked traversal.  Base rows are one per source, cached in the same store
under their own key: stamped with the version, repaired across the edit log
like any node's rows (counted in ``stats["base_rows_repaired"]``) and
filled, when missing, by one unmasked traversal of the backend
(``stats["base_rows_computed"]``); ``rows_computed``, ``rows_repaired`` and
``rows_reused`` keep counting masked rows only.  A round-robin walk, whose
masked rows are stale again by the time a node is re-probed, thus pays one
small repair per base row and sync instead of ``n - 1`` fresh masked
traversals per probe.  Self-verification still recomputes with a fresh
masked traversal.  On numpy the base rows are copied array to array into
one float64 matrix per fill, like a traversal's, and the list kernel edits
each matrix row through a ``memoryview``: no row is converted whole.
Numpy's uniform games keep the masked giant BFS batch (a uniform n = 1024
report ties, 0.29-0.31 s on it against 0.26-0.28 s derived, but a one-round
n = 256 walk took 3.7 s on it and 4.9 s derived), and on the list kernels
below n = 16 a fresh traversal is as cheap as the derivation.  Rows derived
while scoring (through rows, penalty-substituted slices, batched
combination cost vectors) belong to the :class:`~repro.engine.cost_engine.StrategyScorer`
that built them and die with it.  When repair would not pay — more pending net
movers than ``_repair_edit_limit`` (the affected region would approach the
whole row), a row older than the ``REPAIR_LOG_LIMIT``-entry log, or tiny
games where a fresh BFS is cheaper — the engine falls back to
drop-and-recompute, which remains the reference semantics.
``tests/test_engine_parity.py`` pins repaired rows, costs, and walk traces
against full recomputation across randomized single-node edit sequences.

Consumers never invalidate caches themselves; they call ``sync`` (directly
or through the routed entry points :func:`repro.core.best_response`,
:func:`repro.core.equilibrium_report`, :meth:`repro.core.BBCGame.all_costs`)
and trust the stamp.  Anything holding a pre-``sync`` artefact — e.g. a
:class:`~repro.engine.cost_engine.StrategyScorer` — checks the stamp and
refuses to run stale.

**The traversal backend.**  The SSSP kernels behind every row come in two
interchangeable implementations: the list kernels of
:mod:`repro.graphs.int_kernels` (the reference — plain deques and binary
heaps over list CSR) and the array kernels of
:mod:`repro.graphs.int_kernels_np` (level-synchronous frontier BFS and
frontier-relaxation Dijkstra over int64 numpy CSR views of the same
snapshot; their rows repair through the list repair kernels).
``CostEngine(game, backend=...)`` selects between them with the usual tri-state idiom: ``None``/``"auto"`` picks numpy
when it is importable and the game has at least
:data:`~repro.engine.cost_engine.NUMPY_BACKEND_MIN_N` nodes, ``"python"`` or
``"numpy"`` pin a side (a :class:`SweepEvaluator` takes its backend from
the engine it is given; uniform-length games cross over at
:data:`~repro.engine.cost_engine.NUMPY_BACKEND_MIN_N_UNIFORM` because the
deque BFS is leaner than the heap Dijkstra).  Hop counts and integer-valued
lengths traverse in exact int space; non-integer lengths traverse in IEEE
float64, whose frontier relaxation converges to the heap Dijkstra's labels
bit for bit.  Every masked row is read or filled through one accessor,
:meth:`CostEngine.env_rows`, the same on both backends: it runs the node's
planned giant-batch chunk, repairs its stale rows, fills every missing row
of the call in one traversal, and serves the rest from the cache (counted in
``rows_reused``, sampled by ``verify_every``).  A best-response probe asks
for all its rows at once through :meth:`CostEngine.probe_scorer` — the
first hops a probe reads (its candidates plus its current arcs) are defined
once, in ``CostEngine._probe_hops``, which the report plan shares — and the
scorer's batched sub-row build and ``all_costs`` likewise pull their rows
out of one multi-source traversal.  Inside the engine there is one dispatch
and one fill path: ``CostEngine._traverse`` is the only code that calls a
traversal kernel (one source runs the single-source kernel, a batch the
multi-source one; on the python backend the multi-source kernel is a plain
loop, so batching never changes the cost of a row), and ``CostEngine._fill``
stores, charges and counts the rows of every cache fill — ``env_rows``
misses and giant plan chunks alike.
``CostEngine.traversal_seconds`` is accumulated there, so it covers every
traversal, single rows and self-verify recomputes included; masked-row
derivations (the derivation contract above) are charged to it too.  The numpy
backend stores cached rows as arrays (the python backend keeps lists), but
derived results — through rows, costs, regrets — stay plain Python floats, so every scorer fast path, cache contract, and result
type above the kernels is shared;
``tests/test_backend_parity.py`` pins kernel-level and end-to-end parity
and the ``report-bfs`` / ``report-dijkstra`` scenarios of
``scripts/bench_speed.py`` record the numpy-vs-list-kernel trajectory
(floors enforced: >=3x on the Dijkstra-backed report at n=1024 and on the
BFS report at n=4096).

**The giant-batch contract** (new in PR 6).  Both kernel families'
multi-source forms additionally take a *per-row* forbidden mask — row ``i``
of one call computes ``d_{G-u_i}(s_i, ·)`` — so a whole-profile report is
one giant sweep instead of n small per-node batches.  Entry points that
probe every node against one profile (:func:`repro.core.equilibrium_report`,
:func:`repro.core.swap_stability_report`) stage the full row working set up
front via :meth:`CostEngine.plan_report_prefetch`; the engine splits the
plan into contiguous chunks of roughly
:data:`~repro.engine.cost_engine.GIANT_CHUNK_TARGET_BYTES` and drains one
chunk per masked multi-source traversal, lazily, as probes first touch a
planned node.  The short-circuiting checkers (``is_pure_nash``,
``first_unstable_node``) deliberately do not plan — rows staged for nodes
never probed would be wasted.  Planning changes only *when* rows are
computed, never their values: every giant-batch result is bit-identical to
the per-node path and to the dict reference, pinned by
``tests/test_backend_parity.py``.

**The memory-budget contract** (new in PR 6, replacing the PR 5 row-count
cap).  ``CostEngine(game, memory_budget_bytes=...)`` bounds the byte
footprint of the cached rows (one per ``(u, a)``: ``2 n`` bytes for a
uniform game's int16 hop row, ``8 n`` for a list row or a float row, plus
one ``8 n`` base row per source on the derivation path; scorer-local
derived rows are never charged), defaulting to
:func:`~repro.engine.cost_engine.default_memory_budget` — 16 MiB floored,
256 MiB capped.  A
:class:`~repro.engine.row_store.ChunkLedger` accounts bytes per node and
groups the nodes filled by one giant traversal into one LRU *chunk* (rows
from one sweep are views into one allocation, so only dropping the whole
group actually releases memory).  Eviction is node-granular within the
evicted chunk — a node's rows share one version stamp and leave together,
so the repair contract above always repairs a node's whole set.  The base
rows are one more ledger entry that ages and evicts like any chunk: no
derived row refers to them, so only the probe's own rows are exempt from
the eviction its fill triggers.  Eviction is never
silent: ``stats["rows_evicted"]`` /
``stats["chunks_evicted"]`` count it, ``stats["evicted_recomputes"]`` counts
rows that re-entered by recomputation, and :meth:`CostEngine.cache_bytes` /
:meth:`CostEngine.snapshot_stats` expose the live footprint.  An evicted row
re-enters only through full recomputation (its version stamp is gone with
it), so eviction composes with repair without a staleness hazard;
``tests/test_row_cache.py`` drives a long budget-starved walk at n = 1024
and pins bytes <= budget throughout with bit-identical results.

**The vectorised scoring spec.**  When numpy is importable (optional — every
path degrades to the original loops without it), scoring of SUM-objective
unit-weight nodes whose disconnection penalty dominates every finite
distance keeps per-first-hop *penalty-substituted target slices* (sub rows)
and reduces them at C level; on games whose lengths and penalty are
integer-valued (:attr:`IndexedGame.exact_sums` — every default game) the
sub rows are float64 arrays, every missing one batch-built from the cached
rows in one broadcast on **both** backends (list rows and array rows
alike), and whole strategy sets are scored in one vectorised pass
(:meth:`~repro.engine.cost_engine.StrategyScorer.score_combinations`: one
``min(M[i], M[i+1:])`` block per first member, no gathered pair matrix),
which returns a freshly built cost vector owned by the caller.
Exactness of integer float sums below ``2**53`` is what makes the reordered
reductions bit-identical to the reference's left-to-right loops; games
failing any gate (MAX objective, non-unit weights, small penalties,
non-integer lengths, fewer than 16 targets) stay on the original code path.

**The sweep contract.**  Multi-profile workloads (exhaustive / sampled
equilibrium search, the Figure 4 completion scan) go through
:mod:`repro.engine.sweep`: :func:`gray_code_profiles` enumerates a cartesian
product of per-node strategy sets so that consecutive profiles differ in
exactly one node — every ``sync`` along the sweep is then the cheap
single-node case above — and :class:`SweepEvaluator` layers environment-keyed
memoisation on top: a node's deviation check depends only on its
*environment* (everyone else's strategies), so the evaluator caches the
node's minimum achievable cost and its stability verdicts per environment
and never re-probes a node whose environment rows are still valid.
``sync`` reports which nodes a profile step changed (its return value) so
sweep layers know exactly which memo entries survived.  Verdicts stay
bit-identical to the reference path; ``tests/test_sweep.py`` pins it.

**The parallel-map spec.**  For process-level fan-out,
:mod:`repro.experiments.parallel` ships a compact picklable
:class:`~repro.experiments.parallel.GameSpec` — ``("uniform", (n, k,
objective, penalty))`` or ``("general", (nodes, sparse tables, defaults))`` —
plus the candidate sets and plain parameters.

* **Rebuild, don't ship.**  No engine state crosses a process boundary:
  each worker rebuilds the game, its :class:`IndexedGame` and its own
  :class:`CostEngine` from the spec (well under a millisecond at the sizes
  exhaustive search reaches) and writes nothing back.  There is no shared
  segment to own, attach or leak, so worker crashes and pool restarts only
  change *where* a shard's records are computed.
* ``parallel_map(fn, items, processes=...)`` preserves item order and falls
  back to a deterministic serial loop when ``processes == 1``.  The fan-out
  is crash-safe: bounded deterministic retries, dead-pool detection with
  resubmission of only the lost cells on fresh pools, and a final serial
  rung, so results are bit-identical at any process count or crash
  schedule (``tests/test_reliability.py`` pins it across both axes).

**Failure semantics.**  Every entry point above either returns a result
bit-identical to its fault-free run or raises a *documented typed error* —
never a wrong answer, never an unhandled ``multiprocessing``/scipy
traceback.  The contract, enforced under the deterministic fault-injection
harness of :mod:`repro.reliability` (seeded :class:`~repro.reliability
.FaultPlan` rules firing at named ``fault_point`` sites):

* ``parallel_map`` — one fixed policy, no knobs: a worker exception is
  retried in-pool ``TASK_RETRIES`` times with deterministic backoff; a dead
  pool (``BrokenProcessPool``) is rebuilt up to ``MAX_POOL_RESTARTS`` times
  with only the lost cells resubmitted, then the remaining cells run
  serially under a ``RuntimeWarning`` naming the cell count and cause.  A
  cell that still fails raises its exception (the lowest failing index
  first).  There is no task timeout; a hung worker blocks the call.
  ``last_run_stats()`` reports the crashed / retried / journal-hit /
  fallback counters of the latest run.
* ``CostEngine(verify_every=N)`` — every ``N``-th environment-row cache hit
  is recomputed and compared; a poisoned row warns, is counted in
  ``stats["row_verify_failures"]``, and is rebuilt — never served silently.
  A failed giant-chunk build degrades to per-node fills
  (``stats["chunk_build_failures"]``); an unavailable numpy at resolve time
  degrades ``backend="auto"`` to the list kernels.
* ``FractionalEngine.best_response`` — a failed LP solve is retried once
  from a fresh assembly (``stats["lp_retries"]``), then falls back to the
  reference FlowNetwork path for that call under a ``RuntimeWarning``
  (``stats["lp_fallbacks"]``).
* Long sweeps — ``exhaustive_equilibrium_search(journal=...)`` and the
  ``journal=`` kwarg of ``parallel_map`` and the study grids checkpoint
  completed profile blocks / grid cells through an atomic-write
  :class:`~repro.reliability.CheckpointJournal`; a killed run resumes
  without recomputing journalled work and returns the identical summary.
  A corrupt or mismatched journal raises
  :class:`~repro.reliability.CheckpointError`.

**Invariants.**  The contracts above are cross-cutting conventions — easy to
hold in one PR, easy to erode over twenty.  Each one is therefore enforced
twice: statically by a rule of the in-repo AST linter
(``python -m repro.tooling.lint``, run by CI on both dependency legs) and
dynamically by the parity/fault suite.  The mapping:

* *Optional-stack degradation* — numpy/scipy only ever imported behind a
  module-level ``try/except ImportError`` gate, so the minimal CI leg
  imports everything.  Lint rule **RPR001**; runtime proof: the whole suite
  on the minimal leg plus the live ``engine.numpy-import`` degradation check.
* *Determinism* — no interpreter-global RNG state, no wall-clock seeds;
  every stochastic entry point threads a ``SeedLike`` through
  :func:`repro.rng.as_rng`.  Lint rule **RPR002**; runtime proof: the
  replay/identical-summary pins in ``tests/test_reliability.py`` and the
  seeded-walk traces in ``tests/test_engine_parity.py``.
* *Engine threading* — a routed entry point that accepts the tri-state
  ``engine=`` kwarg passes it down to every engine-aware callee, else a walk
  silently mixes shared-engine and reference paths.  Lint rule **RPR003**;
  runtime proof: ``tests/test_engine_parity.py`` pins both paths
  bit-identical, so a dropped kwarg is a perf bug before it is a wrong one.
* *Fault-site registry* — every ``fault_point`` site literal is declared in
  :mod:`repro.reliability.sites` (tests use the reserved ``test.``
  namespace), so a typo'd :class:`~repro.reliability.FaultRule` cannot
  silently never fire.  Lint rule **RPR004**; runtime proof:
  :class:`~repro.reliability.UnknownFaultSiteWarning` warns once per unknown
  site at plan construction.
* *Cost comparison* — cost-typed floats never compared with ``==``/``!=``
  in ``core``/``engine``; the documented tolerance is ``1e-9``.  Lint rule
  **RPR005**; runtime proof: the parity suites compare exact where exactness
  is guaranteed (int space, sums below ``2**53``) and within tolerance
  elsewhere.
* *Cache aliasing* — public engine methods return cached rows only as
  copies or under an explicit ``# repro: readonly`` annotation with a
  docstring contract.  Lint rule **RPR006**; runtime proof:
  ``verify_every`` recomputation catches a caller that mutated a shared row.

**The fractional contract.**  The fractional relaxation
(:mod:`repro.core.fractional`) has its own engine,
:class:`~repro.engine.fractional_engine.FractionalEngine`, built on the same
:class:`IndexedGame` mapping and the same version-stamp discipline: the
profile's edge list is materialised once per version, per-``(version, node)``
*environment* flow networks (everyone else's purchases) serve every
destination through ``min_cost_flow(..., overflow_cost=M)``, a single-mover
sync preserves the mover's environment network, and best-response LPs are
assembled sparse once per node and only patched while the environment's edge
structure holds.  ``get_fractional_engine`` / ``resolve_fractional_engine``
mirror the integral registry and tri-state ``engine`` kwarg.

The dict-based :class:`~repro.core.best_response.DeviationOracle` remains in
the tree as the reference implementation; ``tests/test_engine_parity.py``
asserts bit-identical costs and regrets between the two, and every scenario
of ``scripts/bench_speed.py`` times an engine path against one of the kept
references (this oracle, the list kernels, or a serial run).
"""

from weakref import WeakKeyDictionary

from .cost_engine import (
    NUMPY_BACKEND_MIN_N,
    CostEngine,
    StrategyScorer,
    resolve_backend,
)
from .fractional_engine import (
    FractionalEngine,
    get_fractional_engine,
    resolve_fractional_engine,
)
from .indexed import IndexedGame
from .sweep import SweepEvaluator, gray_code_profiles, profile_at

#: One shared engine per live game object; weak keys so games can be GC'd.
_ENGINES: "WeakKeyDictionary" = WeakKeyDictionary()


def get_engine(game) -> CostEngine:
    """Return the shared :class:`CostEngine` for ``game``, creating it on first use.

    Sharing one engine per game is what lets independently written call sites
    (a best-response walk followed by an equilibrium check, say) reuse each
    other's cached distance rows whenever the profile version still matches.
    """
    engine = _ENGINES.get(game)
    if engine is None:
        engine = CostEngine(game)
        _ENGINES[game] = engine
    return engine


def resolve_engine(game, engine) -> "CostEngine | None":
    """Resolve the tri-state ``engine`` argument shared by routed entry points.

    ``False`` means "use the dict-based reference path" and resolves to
    ``None``; ``None`` resolves to the shared per-game engine; an explicit
    :class:`CostEngine` is validated against ``game`` (see
    :meth:`CostEngine.check_game`) and returned as-is.  Call sites fall back
    to their own reference implementation when this returns ``None``.
    """
    if engine is False:
        return None
    if engine is None:
        return get_engine(game)
    engine.check_game(game)
    return engine


__all__ = [
    "CostEngine",
    "NUMPY_BACKEND_MIN_N",
    "StrategyScorer",
    "FractionalEngine",
    "IndexedGame",
    "SweepEvaluator",
    "gray_code_profiles",
    "get_engine",
    "get_fractional_engine",
    "profile_at",
    "resolve_backend",
    "resolve_engine",
    "resolve_fractional_engine",
]
