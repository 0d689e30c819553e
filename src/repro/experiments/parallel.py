"""Process-parallel study sweeps with crash containment.

Study grids and multi-start dynamics runs are embarrassingly parallel over
their (n, k, seed) cells, but a :class:`~repro.core.BBCGame` drags its engine
caches along and the engine registry is per-process anyway.  The contract
here is therefore *rebuild, don't ship*: a cell crosses the process boundary
as a compact picklable :class:`GameSpec` (plus plain parameters), and each
worker rebuilds the game — and implicitly its
:class:`~repro.engine.IndexedGame` / :class:`~repro.engine.CostEngine`
through the ordinary shared-engine routed entry points — locally.

:func:`parallel_map` is the only execution primitive and is crash-safe under
one fixed policy: it preserves item order, retries a failed cell
:data:`TASK_RETRIES` times with a deterministic backoff, detects a dead
worker pool (``BrokenProcessPool``) and resubmits only the lost cells on a
fresh pool up to :data:`MAX_POOL_RESTARTS` times, and finally degrades to an
in-process serial rung with a :class:`RuntimeWarning` naming the cell count
and cause.  Because every cell is keyed by its item index and ``fn`` is
required to be deterministic in its arguments, results are bit-identical at
any process count or crash schedule — a worker OOM-kill mid-grid changes
*when* cells run, never what they return.  The fault sites
``parallel.pool-start`` and ``parallel.task`` (keyed ``(index, attempt)``)
let :mod:`repro.reliability.faults` inject those failures deterministically;
``tests/test_reliability.py`` pins the invariance.

Passing ``journal=`` (a :class:`~repro.reliability.journal.CheckpointJournal`
or a path) additionally checkpoints each completed cell's result, so a killed
grid resumes without recomputing finished cells.  Journaled results must
survive a JSON round trip unchanged (study rows — dicts of scalars — do).
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from ..core import BBCGame, Objective, UniformBBCGame
from ..reliability import faults as _faults
from ..reliability.faults import InjectedFault
from ..reliability.journal import resolve_journal

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class GameSpec:
    """A compact, picklable description of a game.

    ``("uniform", (n, k, objective, penalty))`` for the (n, k)-uniform game,
    or ``("general", (nodes, sparse tables, defaults, penalty, objective))``
    for an arbitrary :class:`BBCGame`.  Workers call :meth:`build`; nothing
    derived (graphs, engines, caches) ever crosses the process boundary.
    """

    kind: str
    payload: tuple

    @staticmethod
    def from_fractional_game(game) -> "GameSpec":
        """Capture a :class:`~repro.core.FractionalBBCGame` via its base game.

        The fractional relaxation carries no state of its own beyond the base
        integral game, so the spec is the base's; rebuild with
        :meth:`build_fractional`.
        """
        return GameSpec.from_game(game.base)

    @staticmethod
    def from_game(game: BBCGame) -> "GameSpec":
        """Capture ``game`` as a spec from which :meth:`build` rebuilds it."""
        # Exact-type check, not isinstance: a UniformBBCGame *subclass* may
        # override behaviour that (n, k, objective, penalty) cannot encode,
        # and silently round-tripping it as a plain uniform game would hand
        # workers the wrong game.  Subclasses take the general spec, which
        # captures the actual tables.
        if type(game) is UniformBBCGame:
            return GameSpec(
                "uniform",
                (game.n, game.k, game.objective.value, game.disconnection_penalty),
            )
        # The sparse tables are private to BBCGame but this module is part of
        # the same subsystem; insertion order is preserved so the rebuilt
        # game iterates identically to the original.
        return GameSpec(
            "general",
            (
                tuple(game.nodes),
                tuple(game._weights.items()),
                tuple(game._link_costs.items()),
                tuple(game._link_lengths.items()),
                tuple(game._budgets.items()),
                game._default_weight,
                game._default_link_cost,
                game._default_link_length,
                game._default_budget,
                game.disconnection_penalty,
                game.objective.value,
            ),
        )

    def build(self) -> BBCGame:
        """Rebuild the described game (fresh caches, fresh engine on first use)."""
        if self.kind == "uniform":
            n, k, objective, penalty = self.payload
            return UniformBBCGame(
                n, k, objective=Objective(objective), disconnection_penalty=penalty
            )
        if self.kind != "general":
            raise ValueError(f"unknown GameSpec kind {self.kind!r}")
        (
            nodes,
            weights,
            link_costs,
            link_lengths,
            budgets,
            default_weight,
            default_link_cost,
            default_link_length,
            default_budget,
            penalty,
            objective,
        ) = self.payload
        return BBCGame(
            nodes=nodes,
            weights=dict(weights),
            link_costs=dict(link_costs),
            link_lengths=dict(link_lengths),
            budgets=dict(budgets),
            default_weight=default_weight,
            default_link_cost=default_link_cost,
            default_link_length=default_link_length,
            default_budget=default_budget,
            disconnection_penalty=penalty,
            objective=Objective(objective),
        )

    def build_fractional(self):
        """Rebuild the described game wrapped as a :class:`FractionalBBCGame`.

        Fresh caches and a fresh :class:`~repro.engine.FractionalEngine` on
        first use, exactly like :meth:`build` for the integral engine.
        """
        from ..core.fractional import FractionalBBCGame

        return FractionalBBCGame(self.build())


def _available_cpus() -> int:
    """CPUs this process may actually run on, not how many the host has.

    ``os.sched_getaffinity`` sees cgroup/taskset pinning (a CI container
    restricted to 2 of the host's 64 cores gets 2 workers, not 64 forks
    fighting over 2 cores); platforms without it fall back to
    ``os.cpu_count``.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - affinity query denied
            pass
    return os.cpu_count() or 1


def _processes_override() -> Optional[int]:
    """The ``REPRO_PROCESSES`` env override, validated, or ``None``.

    The documented escape hatch for CI and containers whose effective CPU
    budget the affinity mask cannot see (e.g. cfs-quota throttling): it
    replaces the *detected* worker count wherever a caller asked for the
    automatic default, and never overrides an explicit ``processes=N``.
    """
    raw = os.environ.get("REPRO_PROCESSES")
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_PROCESSES must be a positive integer (got {raw!r})"
        ) from None
    if value < 1:
        raise ValueError(f"REPRO_PROCESSES must be at least 1 (got {value})")
    return value


def resolve_processes(processes: Optional[int]) -> int:
    """Normalise a ``processes`` argument.

    ``None`` means one worker per *available* CPU — the scheduling-affinity
    mask where the platform exposes one, else ``os.cpu_count`` — unless the
    ``REPRO_PROCESSES`` environment variable pins the automatic count
    explicitly.  Explicit integers pass through unchanged (after
    validation); the override never second-guesses them.
    """
    if processes is None:
        override = _processes_override()
        if override is not None:
            return override
        return _available_cpus()
    if processes < 1:
        raise ValueError(f"processes must be at least 1 (got {processes})")
    return processes


def default_processes(cap: int = 4) -> int:
    """Return the benchmarks' worker-count default: one per available CPU, capped.

    Study grids are small, so past a handful of workers fork overhead wins;
    the benchmarks share this policy instead of re-deriving it.  "Available"
    respects CPU affinity (see :func:`resolve_processes`), and an explicit
    ``REPRO_PROCESSES`` override bypasses the cap — it is configuration, not
    a detected default.
    """
    override = _processes_override()
    if override is not None:
        return override
    return min(cap, _available_cpus())


#: Unfilled-cell sentinel (``None`` is a legitimate cell result).
_PENDING = object()

#: The fixed failure policy.  A cell whose execution raises is re-run in-pool
#: up to ``TASK_RETRIES`` times, retry ``k`` first waiting
#: ``k * RETRY_BACKOFF_SECONDS`` (deterministic, no jitter); a dead pool is
#: replaced at most ``MAX_POOL_RESTARTS`` times before its remaining cells
#: fall through to the serial rung.
TASK_RETRIES = 1
RETRY_BACKOFF_SECONDS = 0.01
MAX_POOL_RESTARTS = 2

_RUN_STAT_KEYS = (
    "cells", "journal_hits", "retried", "crashed", "pool_restarts",
    "serial_fallback_cells",
)

#: Failure-handling counters of the most recent :func:`parallel_map` call in
#: this process (published even when the call raises): cells submitted,
#: journal-served cells, task retries, cells lost to a dead pool, pool
#: restarts, and cells degraded to the serial rung.  The bench smoke prints
#: these so regressions in failure handling are visible in CI logs.
_LAST_RUN_STATS: Dict[str, int] = {key: 0 for key in _RUN_STAT_KEYS}


def last_run_stats() -> Dict[str, int]:
    """Return a copy of the most recent :func:`parallel_map` run's counters."""
    return dict(_LAST_RUN_STATS)


def _worker_init(plan) -> None:
    """Pool-worker initializer: mark the process and arm the caller's faults."""
    _faults.mark_worker_process()
    if plan is not None:
        _faults.install_fault_plan(plan)


def _pool_cell(fn, index: int, attempt: int, item):
    """One worker-side cell execution, wrapped in its fault site."""
    _faults.fault_point("parallel.task", key=(index, attempt))
    return fn(item)


def _journal_record(journal, index: int, value) -> None:
    if journal is not None:
        journal.record(f"cell:{index}", value)


def _run_generation(
    executor, fn, work, todo: List[int], attempts: Dict[int, int],
    errors: Dict[int, int], results: list, failed: Dict[int, BaseException],
    stats: Dict[str, int], journal,
) -> Tuple[List[int], Optional[BaseException]]:
    """Drive ``todo`` cells through one pool generation.

    Successes land in ``results`` (and the journal); failures past
    :data:`TASK_RETRIES` land in ``failed``.  Returns ``([], None)`` when
    every cell resolved, or ``(lost, cause)`` when the pool broke first, with
    exactly the cells whose outcome is unknown.
    """
    futures: Dict[object, int] = {}

    def submit(index: int) -> None:
        attempt = attempts[index]
        attempts[index] = attempt + 1
        future = executor.submit(_pool_cell, fn, index, attempt, work[index])
        futures[future] = index

    try:
        for index in todo:
            submit(index)
        while futures:
            done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
            for future in done:
                index = futures.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool:
                    raise
                except Exception as exc:
                    errors[index] += 1
                    if errors[index] <= TASK_RETRIES:
                        stats["retried"] += 1
                        time.sleep(RETRY_BACKOFF_SECONDS * errors[index])
                        submit(index)
                    else:
                        failed[index] = exc
                else:
                    results[index] = value
                    _journal_record(journal, index, value)
    except BrokenProcessPool as exc:
        lost = [i for i in todo if results[i] is _PENDING and i not in failed]
        return lost, exc
    return [], None


def _run_pool_rungs(
    fn, work, pending: List[int], results: list,
    failed: Dict[int, BaseException], stats: Dict[str, int], count: int, journal,
) -> List[int]:
    """Run ``pending`` cells across bounded pool generations.

    Returns the cells that must fall through to the serial rung (after the
    appropriate :class:`RuntimeWarning`); everything else is resolved into
    ``results``/``failed``.
    """
    import multiprocessing

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork (e.g. Windows)
        context = multiprocessing.get_context()
    plan = _faults.current_plan()

    def make_pool():
        _faults.fault_point("parallel.pool-start")
        return ProcessPoolExecutor(
            max_workers=count, mp_context=context,
            initializer=_worker_init, initargs=(plan,),
        )

    try:
        executor = make_pool()
    except (OSError, InjectedFault) as exc:
        warnings.warn(
            f"process pool unavailable ({exc}); running {len(pending)} cells serially",
            RuntimeWarning,
            stacklevel=3,
        )
        stats["serial_fallback_cells"] += len(pending)
        return list(pending)

    attempts = {index: 0 for index in pending}
    errors = {index: 0 for index in pending}
    todo = list(pending)
    restarts_left = MAX_POOL_RESTARTS
    cause: Optional[BaseException] = None
    while True:
        lost, broken = _run_generation(
            executor, fn, work, todo, attempts, errors, results, failed, stats,
            journal,
        )
        if not lost:
            executor.shutdown(wait=True)
            return []
        # The generation died under `lost`: release it without waiting and
        # decide on a restart.
        executor.shutdown(wait=False, cancel_futures=True)
        stats["crashed"] += len(lost)
        todo = lost
        if restarts_left <= 0:
            cause = broken
            break
        restarts_left -= 1
        stats["pool_restarts"] += 1
        try:
            executor = make_pool()
        except (OSError, InjectedFault) as exc:
            cause = exc
            break
    warnings.warn(
        f"worker pool died mid-run ({cause!r}) and pool restarts are exhausted; "
        f"running {len(todo)} remaining cells serially",
        RuntimeWarning,
        stacklevel=3,
    )
    stats["serial_fallback_cells"] += len(todo)
    return todo


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    processes: Optional[int] = 1,
    journal=None,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally across crash-safe worker processes.

    Results come back in item order regardless of process count, so a study
    produces identical rows at ``processes=1`` (a plain deterministic loop —
    no pool, no pickling) and ``processes=N``.  ``fn`` must be a module-level
    callable, deterministic in its arguments, and every item picklable when
    ``processes > 1``.

    Failure handling follows one fixed policy, rung by rung:

    * a cell whose execution raises is retried in-pool up to
      :data:`TASK_RETRIES` times with a deterministic linear backoff of
      :data:`RETRY_BACKOFF_SECONDS`;
    * a dead pool (``BrokenProcessPool`` from a killed worker) loses only its
      unresolved cells, which are resubmitted on a fresh pool up to
      :data:`MAX_POOL_RESTARTS` times;
    * cells that outlive every pool rung (startup failure, restarts
      exhausted) run in-process on the serial rung, announced by a
      :class:`RuntimeWarning` with the cell count and cause;
    * a cell whose *function* still fails after its retries raises: the
      exception of the lowest failing pool cell propagates once the pool
      rungs finish, and a serial-rung failure propagates at once.

    There is no task timeout: a hung worker blocks the call, so callers that
    need a wall-clock bound impose it from outside.

    ``journal`` (a :class:`~repro.reliability.journal.CheckpointJournal` or
    path) checkpoints each completed cell; on resume, journaled cells are
    served without re-executing ``fn`` — results must be JSON-round-trip
    stable for resumed and fresh runs to stay bit-identical.  Cells are
    scheduled individually, so a crash loses at most the in-flight cells.
    :func:`last_run_stats` reports this call's failure-handling counters.
    """
    work: List[T] = list(items)
    stats = {key: 0 for key in _RUN_STAT_KEYS}
    stats["cells"] = len(work)
    try:
        journal = resolve_journal(journal)
        results: list = [_PENDING] * len(work)
        if journal is not None:
            for index in range(len(work)):
                key = f"cell:{index}"
                if key in journal:
                    results[index] = journal.get(key)
                    stats["journal_hits"] += 1
        pending = [index for index in range(len(work)) if results[index] is _PENDING]
        failed: Dict[int, BaseException] = {}

        count = min(resolve_processes(processes), len(pending))
        if count > 1:
            pending = _run_pool_rungs(
                fn, work, pending, results, failed, stats, count, journal
            )

        # Serial rung: cells that never ran in a pool (processes == 1, startup
        # failure, or pool death past the restart budget) execute in-process.
        for index in pending:
            value = fn(work[index])
            results[index] = value
            _journal_record(journal, index, value)
        if failed:
            raise failed[min(failed)]
        return results
    finally:
        _LAST_RUN_STATS.clear()
        _LAST_RUN_STATS.update(stats)


__all__ = [
    "MAX_POOL_RESTARTS",
    "RETRY_BACKOFF_SECONDS",
    "TASK_RETRIES",
    "GameSpec",
    "default_processes",
    "last_run_stats",
    "parallel_map",
    "resolve_processes",
]
