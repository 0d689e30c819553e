"""Fault-tolerant execution runtime: fault injection and checkpoint journals.

This subsystem makes failure handling explicit and testable across the
engine and experiment layers:

* :mod:`repro.reliability.faults` — a seeded, picklable :class:`FaultPlan`
  plus cheap ``fault_point("site")`` hooks compiled into the hot paths'
  failure sites (pool startup, worker task execution, LP solves, row-chunk
  builds and evictions, numpy-import gating), so tests inject crashes,
  solver failures, and adversarial evictions at exact reproducible points
  and assert results stay bit-identical to a fault-free run;
* :mod:`repro.reliability.journal` — an atomic-write
  :class:`CheckpointJournal` of completed Gray-code profile ranges / grid
  cells, adopted by the exhaustive searches and ``parallel_map`` so a
  killed run resumes without recomputing finished work.

The consumers are :func:`repro.experiments.parallel.parallel_map` (crash
containment, retries, pool restarts, serial fallback),
:func:`repro.core.search.exhaustive_equilibrium_search` (checkpointed
sweeps), and the engines' graceful-degradation paths
(``CostEngine(verify_every=...)`` self-verification, ``FractionalEngine``
LP retry-then-reference-fallback); the "Failure semantics" section of
:mod:`repro.engine` documents the full contract.
"""

from .faults import (
    CRASH_EXIT_CODE,
    CheckpointError,
    FaultPlan,
    FaultRule,
    InjectedFault,
    ReliabilityError,
    UnknownFaultSiteWarning,
    active_faults,
    clear_fault_plan,
    current_plan,
    fault_fires,
    fault_point,
    install_fault_plan,
    mark_worker_process,
)
from .journal import CheckpointJournal, atomic_write_text, resolve_journal
from .sites import (
    REGISTERED_FAULT_SITES,
    TEST_SITE_NAMESPACE,
    is_registered_fault_site,
    register_fault_site,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "CheckpointError",
    "CheckpointJournal",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "REGISTERED_FAULT_SITES",
    "ReliabilityError",
    "TEST_SITE_NAMESPACE",
    "UnknownFaultSiteWarning",
    "active_faults",
    "atomic_write_text",
    "clear_fault_plan",
    "current_plan",
    "fault_fires",
    "fault_point",
    "install_fault_plan",
    "is_registered_fault_site",
    "mark_worker_process",
    "register_fault_site",
    "resolve_journal",
]
