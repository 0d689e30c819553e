"""Process-parallel study sweeps with crash containment.

Study grids and multi-start dynamics runs are embarrassingly parallel over
their (n, k, seed) cells, but a :class:`~repro.core.BBCGame` drags its engine
caches along and the engine registry is per-process anyway.  The contract
here is therefore *rebuild, don't ship*: a cell crosses the process boundary
as a compact picklable :class:`GameSpec` (plus plain parameters), and each
worker rebuilds the game — and implicitly its
:class:`~repro.engine.IndexedGame` / :class:`~repro.engine.CostEngine`
through the ordinary shared-engine routed entry points — locally.

:func:`parallel_map` is the only execution primitive and is crash-safe: it
preserves item order, retries failed cells a bounded number of times with a
deterministic backoff, detects dead worker pools (``BrokenProcessPool``,
hung tasks past ``timeout``) and resubmits only the lost cells on a fresh
pool up to ``max_pool_restarts`` times, and finally degrades to an in-process
serial rung with a :class:`RuntimeWarning` naming the cell count and cause.
Because every cell is keyed by its item index and ``fn`` is required to be
deterministic in its arguments, results are bit-identical at any process
count, retry budget, or crash schedule — a worker OOM-kill mid-grid changes
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
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, TypeVar

from ..core import BBCGame, Objective, UniformBBCGame
from ..reliability import faults as _faults
from ..reliability.faults import InjectedFault, ParallelExecutionError
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

_RUN_STAT_KEYS = (
    "cells",
    "journal_hits",
    "retried",
    "timeouts",
    "crashed",
    "pool_restarts",
    "serial_fallback_cells",
    "skipped",
)

#: Failure-handling counters of the most recent :func:`parallel_map` call in
#: this process (published even when the call raises): cells submitted,
#: journal-served cells, task retries, task timeouts, cells lost to a dead
#: pool, pool restarts, cells degraded to the serial rung, and cells skipped
#: by ``on_error="skip"``.  The bench smoke prints these so regressions in
#: failure handling are visible in CI logs.
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


class _HungTask(ParallelExecutionError):
    """A running task outlived its deadline; its pool generation is condemned."""

    def __init__(self, index: int, timeout: float) -> None:
        super().__init__(
            f"cell {index} still running after its {timeout:g}s timeout; "
            "abandoning the worker pool generation"
        )
        self.index = index


def _journal_record(journal, index: int, value) -> None:
    if journal is not None:
        journal.record(f"cell:{index}", value)


def _poll_interval(deadlines) -> Optional[float]:
    live = [deadline for deadline in deadlines.values() if deadline is not None]
    if not live:
        return None
    return max(0.01, min(live) - time.monotonic())


def _run_generation(
    executor,
    fn,
    work,
    todo: List[int],
    attempts: Dict[int, int],
    errors: Dict[int, int],
    results: list,
    failed: Dict[int, BaseException],
    stats: Dict[str, int],
    *,
    timeout: Optional[float],
    retries: int,
    backoff: float,
    journal,
) -> Tuple[List[int], Optional[BaseException]]:
    """Drive ``todo`` cells through one pool generation.

    Successes land in ``results`` (and the journal); failures past the retry
    budget land in ``failed``.  Returns ``([], None)`` when every cell
    resolved, or ``(lost, cause)`` when the generation died first — a broken
    pool or a hung task — with exactly the cells whose outcome is unknown.
    """
    futures: Dict[object, int] = {}
    deadlines: Dict[object, Optional[float]] = {}

    def submit(index: int) -> None:
        attempt = attempts[index]
        attempts[index] = attempt + 1
        future = executor.submit(_pool_cell, fn, index, attempt, work[index])
        futures[future] = index
        deadlines[future] = (time.monotonic() + timeout) if timeout else None

    try:
        for index in todo:
            submit(index)
        while futures:
            done, _ = wait(
                list(futures), timeout=_poll_interval(deadlines),
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                index = futures.pop(future)
                deadlines.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool:
                    raise
                except Exception as exc:
                    errors[index] += 1
                    if errors[index] <= retries:
                        stats["retried"] += 1
                        if backoff:
                            # Deterministic linear backoff: attempt k of a
                            # cell waits k * backoff seconds, no jitter.
                            time.sleep(backoff * errors[index])
                        submit(index)
                    else:
                        failed[index] = exc
                else:
                    results[index] = value
                    _journal_record(journal, index, value)
            if timeout:
                now = time.monotonic()
                for future, deadline in list(deadlines.items()):
                    if deadline is None or deadline > now:
                        continue
                    index = futures[future]
                    stats["timeouts"] += 1
                    if future.cancel():
                        # Never started — the queue was just slow.  Count it
                        # against the retry budget and resubmit with a fresh
                        # deadline.
                        futures.pop(future)
                        deadlines.pop(future)
                        errors[index] += 1
                        if errors[index] <= retries:
                            stats["retried"] += 1
                            submit(index)
                        else:
                            failed[index] = TimeoutError(
                                f"cell {index} timed out after {timeout:g}s"
                            )
                    else:
                        # Running and overdue: the worker is hung, and a
                        # ProcessPoolExecutor cannot reclaim it without
                        # abandoning the generation.
                        raise _HungTask(index, timeout)
    except (BrokenProcessPool, _HungTask) as exc:
        lost = [
            index
            for index in todo
            if results[index] is _PENDING and index not in failed
        ]
        return lost, exc
    return [], None


def _run_pool_rungs(
    fn,
    work,
    pending: List[int],
    results: list,
    failed: Dict[int, BaseException],
    stats: Dict[str, int],
    *,
    count: int,
    timeout: Optional[float],
    retries: int,
    backoff: float,
    max_pool_restarts: int,
    journal,
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
            max_workers=count,
            mp_context=context,
            initializer=_worker_init,
            initargs=(plan,),
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
    restarts_left = max_pool_restarts
    cause: Optional[BaseException] = None
    while True:
        lost, broken = _run_generation(
            executor, fn, work, todo, attempts, errors, results, failed, stats,
            timeout=timeout, retries=retries, backoff=backoff, journal=journal,
        )
        if not lost:
            executor.shutdown(wait=True)
            return []
        # The generation died under `lost`: release it without waiting (a
        # hung worker would block a clean shutdown) and decide on a restart.
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
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.01,
    on_error: str = "raise",
    max_pool_restarts: int = 2,
    journal=None,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally across crash-safe worker processes.

    Results come back in item order regardless of process count, so a study
    produces identical rows at ``processes=1`` (a plain deterministic loop —
    no pool, no pickling) and ``processes=N``.  ``fn`` must be a module-level
    callable, deterministic in its arguments, and every item picklable when
    ``processes > 1``.

    Failure handling, rung by rung:

    * a cell whose execution raises is retried in-pool up to ``retries``
      times with a deterministic linear ``backoff`` (task timeouts count as
      failures; ``timeout`` is per task execution, pool rung only);
    * a dead pool — ``BrokenProcessPool`` from a killed worker, or a task
      hung past ``timeout`` — loses only its unresolved cells, which are
      resubmitted on a fresh pool up to ``max_pool_restarts`` times;
    * cells that outlive every pool rung (startup failure, restarts
      exhausted) run in-process on the serial rung, announced by a
      :class:`RuntimeWarning` with the cell count and cause;
    * cells whose *function* still fails after all retries follow
      ``on_error``: ``"raise"`` re-raises the failing cell's exception
      (lowest index first), ``"retry-serial"`` gives each one final
      in-process run before raising, ``"skip"`` records ``None`` for them
      and warns with the count.

    ``journal`` (a :class:`~repro.reliability.journal.CheckpointJournal` or
    path) checkpoints each completed cell; on resume, journaled cells are
    served without re-executing ``fn`` — results must be JSON-round-trip
    stable for resumed and fresh runs to stay bit-identical.  Cells are
    scheduled individually, so a crash loses at most the in-flight cells.
    :func:`last_run_stats` reports this call's failure-handling counters.
    """
    if on_error not in ("raise", "retry-serial", "skip"):
        raise ValueError(
            f"on_error must be 'raise', 'retry-serial', or 'skip' (got {on_error!r})"
        )
    if retries < 0:
        raise ValueError(f"retries must be non-negative (got {retries})")
    if max_pool_restarts < 0:
        raise ValueError(
            f"max_pool_restarts must be non-negative (got {max_pool_restarts})"
        )
    work: List[T] = list(items)
    stats = {key: 0 for key in _RUN_STAT_KEYS}
    stats["cells"] = len(work)
    try:
        return _parallel_map_impl(
            fn, work, stats,
            processes=processes, timeout=timeout, retries=retries,
            backoff=backoff, on_error=on_error,
            max_pool_restarts=max_pool_restarts, journal=journal,
        )
    finally:
        _LAST_RUN_STATS.clear()
        _LAST_RUN_STATS.update(stats)


def _parallel_map_impl(
    fn, work, stats, *, processes, timeout, retries, backoff, on_error,
    max_pool_restarts, journal,
):
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
            fn, work, pending, results, failed, stats,
            count=count, timeout=timeout, retries=retries, backoff=backoff,
            max_pool_restarts=max_pool_restarts, journal=journal,
        )

    # Serial rung: cells that never ran in a pool (processes == 1, startup
    # failure, or pool death past the restart budget) execute in-process.
    serial_ran: Set[int] = set()
    for index in pending:
        serial_ran.add(index)
        try:
            value = fn(work[index])
        except Exception as exc:
            if on_error == "raise":
                raise
            failed[index] = exc
        else:
            results[index] = value
            _journal_record(journal, index, value)

    if failed and on_error == "retry-serial":
        for index in sorted(failed):
            if index in serial_ran:
                continue  # its failure *was* serial; a rerun cannot differ
            try:
                value = fn(work[index])
            except Exception as exc:
                failed[index] = exc
            else:
                results[index] = value
                _journal_record(journal, index, value)
                del failed[index]
    if failed:
        if on_error == "skip":
            stats["skipped"] = len(failed)
            first = min(failed)
            warnings.warn(
                f"parallel_map skipped {len(failed)} of {len(work)} cells after "
                f"exhausted retries (first: cell {first}: {failed[first]!r})",
                RuntimeWarning,
                stacklevel=3,
            )
            for index in failed:
                results[index] = None
        else:
            raise failed[min(failed)]
    if journal is not None:
        journal.flush()
    return results


__all__ = [
    "GameSpec",
    "default_processes",
    "last_run_stats",
    "parallel_map",
    "resolve_processes",
]
