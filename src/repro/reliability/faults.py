"""Deterministic fault injection for the execution runtime.

The hot paths of the engine and experiment layers carry cheap, named *fault
sites* — ``fault_point("parallel.task", key=(index, attempt))`` and friends —
that are inert unless a :class:`FaultPlan` is installed.  A plan is a small
list of :class:`FaultRule` triggers matched by site name, optional key set,
optional seeded probability, and per-process occurrence window, so a test can
make *exactly* the third LP solve fail, crash the worker that runs cell 5's
first attempt, or force an eviction on every tenth row probe — reproducibly,
at any process count.

Two fault kinds cover the failure modes the runtime must survive:

* ``"error"`` — :func:`fault_point` raises :class:`InjectedFault` (a
  :class:`~repro.core.errors.BBCError`), standing in for a solver failure,
  a corrupt input, or any exception-shaped infrastructure fault;
* ``"crash"`` — the process dies on the spot via ``os._exit`` (no cleanup,
  no exception), standing in for an OOM kill or segfault.  Crash rules fire
  only in worker processes (see :func:`mark_worker_process`) unless
  ``where="anywhere"`` is set explicitly, so an injected worker crash can
  never take down the test process itself.

Sites that need to *corrupt* state rather than fail call :func:`fault_fires`
directly and apply their own effect (e.g. the poisoned-row site in
:class:`~repro.engine.cost_engine.CostEngine`).

The registry is one module-level plan per process.  ``parallel_map`` ships
the installed plan to its workers through the pool initializer, so a plan
installed in the test process governs worker-side sites too.  All matching
is deterministic: explicit keys are process-independent, seeded-probability
rules hash ``(seed, site, key)`` with crc32 (never the per-process ``hash``),
and occurrence counters are plain per-process counts.
"""

from __future__ import annotations

import os
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from ..core.errors import BBCError
from .sites import is_registered_fault_site


class UnknownFaultSiteWarning(UserWarning):
    """A :class:`FaultRule` targets a site no code registers.

    The rule can never fire — almost always an injection-config typo, which
    would otherwise make a fault-tolerance test silently assert nothing.
    Sites in the reserved ``test.`` namespace are exempt (see
    :mod:`repro.reliability.sites`); lint rule RPR004 enforces the same
    contract statically.
    """


class ReliabilityError(BBCError):
    """Base class for errors raised by :mod:`repro.reliability`."""


class InjectedFault(ReliabilityError):
    """Raised by :func:`fault_point` when an armed ``"error"`` rule fires.

    This is the *documented* typed error of every fault-injected failure
    path: entry points either absorb it (retry, fall back, resubmit) and
    return bit-identical results, or let it surface as-is — never as a bare
    ``multiprocessing``/scipy internal traceback.
    """

    def __init__(self, site: str, kind: str = "error", key=None) -> None:
        super().__init__(f"injected fault at {site!r} (kind={kind!r}, key={key!r})")
        self.site = site
        self.kind = kind
        self.key = key


class CheckpointError(ReliabilityError):
    """A checkpoint journal is unreadable, corrupt, or from a different run."""


#: Exit status used by ``kind="crash"`` rules; chosen to be recognisable in
#: worker post-mortems without colliding with common tool exit codes.
CRASH_EXIT_CODE = 66


@dataclass(frozen=True)
class FaultRule:
    """One trigger of a :class:`FaultPlan`.

    ``site`` names the fault point; ``keys`` (optional) restricts firing to
    specific key values; ``probability`` (optional) gates firing on the
    plan's seeded coin for ``(site, key)``; ``after``/``times`` open a
    per-process occurrence window (skip the first ``after`` matching hits,
    then fire at most ``times`` times — ``times=None`` fires forever).
    ``where`` restricts the rule to ``"worker"`` or ``"parent"`` processes;
    crash rules default to workers, everything else fires anywhere.
    """

    site: str
    kind: str = "error"  # "error" | "crash"
    keys: Optional[FrozenSet] = None
    probability: Optional[float] = None
    after: int = 0
    times: Optional[int] = 1
    where: Optional[str] = None  # None = kind default; "worker"|"parent"|"anywhere"

    def __post_init__(self) -> None:
        if self.kind not in ("error", "crash"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.keys is not None and not isinstance(self.keys, frozenset):
            object.__setattr__(self, "keys", frozenset(self.keys))
        if self.where is None:
            object.__setattr__(
                self, "where", "worker" if self.kind == "crash" else "anywhere"
            )
        if self.where not in ("worker", "parent", "anywhere"):
            raise ValueError(f"unknown fault scope {self.where!r}")


@dataclass
class FaultPlan:
    """A picklable, seeded set of :class:`FaultRule` triggers.

    Occurrence counters are per-process (a forked worker starts from the
    counts at fork time; a pool-initializer install starts them fresh), so
    rules that must fire at one exact point across processes should pin
    ``keys`` rather than rely on counts.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    _hits: Dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rules = tuple(self.rules)
        for rule in self.rules:
            _warn_unknown_site(rule.site)

    @classmethod
    def seeded(
        cls,
        seed: int,
        sites: Iterable[str],
        *,
        probability: float = 0.1,
        kind: str = "error",
        times: Optional[int] = None,
    ) -> "FaultPlan":
        """A plan that fires ``kind`` at each site with a seeded coin per key.

        The coin is ``crc32(f"{seed}:{site}:{key!r}")`` compared against
        ``probability`` — fully deterministic across processes and runs for
        any picklable, ``repr``-stable key (ints, strings, tuples thereof).
        """
        rules = tuple(
            FaultRule(site=site, kind=kind, probability=probability, times=times)
            for site in sites
        )
        return cls(rules=rules, seed=seed)

    def _coin(self, site: str, key, probability: float) -> bool:
        token = f"{self.seed}:{site}:{key!r}".encode()
        return (zlib.crc32(token) % 10_000) < probability * 10_000

    def match(self, site: str, key=None) -> Optional[FaultRule]:
        """Return the first rule that fires for ``(site, key)`` here and now."""
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if rule.where == "worker" and not _IN_WORKER:
                continue
            if rule.where == "parent" and _IN_WORKER:
                continue
            if rule.keys is not None and key not in rule.keys:
                continue
            if rule.probability is not None and not self._coin(
                site, key, rule.probability
            ):
                continue
            hits = self._hits.get(index, 0)
            self._hits[index] = hits + 1
            if hits < rule.after:
                continue
            if rule.times is not None and hits >= rule.after + rule.times:
                continue
            return rule
        return None


#: Sites already warned about in this process — the warning fires once per
#: typo, not once per plan copy (plans are pickled to every pool worker).
_WARNED_UNKNOWN_SITES: Set[str] = set()


def _warn_unknown_site(site: str) -> None:
    if is_registered_fault_site(site) or site in _WARNED_UNKNOWN_SITES:
        return
    _WARNED_UNKNOWN_SITES.add(site)
    warnings.warn(
        f"FaultRule targets unregistered fault site {site!r}: no fault_point "
        "carries that name, so the rule can never fire. Check for a typo "
        "against repro.reliability.sites.REGISTERED_FAULT_SITES, or use the "
        "reserved 'test.' namespace for abstract unit-test sites.",
        UnknownFaultSiteWarning,
        stacklevel=3,
    )


#: The installed plan of this process (``None`` = every site inert).
_ACTIVE: Optional[FaultPlan] = None
#: Set in pool workers so ``where="worker"`` rules can tell the sides apart.
_IN_WORKER = False


def install_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as this process's active plan (``None`` clears it)."""
    global _ACTIVE
    _ACTIVE = plan


def clear_fault_plan() -> None:
    """Disarm every fault site in this process."""
    install_fault_plan(None)


def current_plan() -> Optional[FaultPlan]:
    """Return the installed plan, or ``None`` when no faults are armed."""
    return _ACTIVE


def mark_worker_process() -> None:
    """Mark this process as a pool worker (enables ``where="worker"`` rules)."""
    global _IN_WORKER
    _IN_WORKER = True


@contextmanager
def active_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of the ``with`` block."""
    previous = _ACTIVE
    install_fault_plan(plan)
    try:
        yield plan
    finally:
        install_fault_plan(previous)


def fault_fires(site: str, key=None) -> Optional[FaultRule]:
    """Return the armed rule firing at ``(site, key)``, or ``None``.

    The no-plan fast path is one global read, so compiled-in hooks cost
    nearly nothing in production runs.  Sites that corrupt state (rather
    than raise) branch on this directly.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.match(site, key)


def fault_point(site: str, key=None) -> None:
    """Execute the fault site ``site``: a no-op unless an armed rule fires.

    ``"error"`` rules raise :class:`InjectedFault`; ``"crash"`` rules
    terminate the process via ``os._exit`` (worker-scoped by default).
    """
    rule = fault_fires(site, key)
    if rule is None:
        return
    if rule.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    raise InjectedFault(site, rule.kind, key)


__all__ = [
    "CRASH_EXIT_CODE",
    "CheckpointError",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "ReliabilityError",
    "UnknownFaultSiteWarning",
    "active_faults",
    "clear_fault_plan",
    "current_plan",
    "fault_fires",
    "fault_point",
    "install_fault_plan",
    "mark_worker_process",
]
