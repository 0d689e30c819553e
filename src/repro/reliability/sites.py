"""The single registry of named fault-injection sites.

Every ``fault_point("name", ...)`` / ``fault_fires("name", ...)`` literal in
the runtime must appear here, and every :class:`~repro.reliability.faults
.FaultRule` key in tests and docs must name a registered site — otherwise a
typo'd site *silently never fires* and a fault-injection test asserts
nothing.  The contract is enforced twice:

* statically, by lint rule RPR004 (``python -m repro.tooling.lint``), which
  parses this module's AST for the registered names;
* at runtime, by :class:`~repro.reliability.faults.FaultPlan`, which warns
  (:class:`UnknownFaultSiteWarning`, once per site per process) when a rule
  targets an unregistered site.

The ``test.`` namespace is reserved for abstract sites in unit tests of the
plan machinery itself (coin determinism, occurrence windows, …); both
enforcement layers skip it.  Downstream extensions register their sites via
:func:`register_fault_site` at import time of the module that hosts the new
``fault_point``.
"""

from __future__ import annotations

from typing import Dict

#: Site-name prefix exempt from registration, for plan-machinery unit tests.
TEST_SITE_NAMESPACE = "test."

#: Every compiled-in fault site: name -> where it fires and what it models.
REGISTERED_FAULT_SITES: Dict[str, str] = {
    "engine.chunk-build": (
        "CostEngine giant-chunk row build; a failure degrades to per-node "
        "fills (stats['chunk_build_failures'])"
    ),
    "engine.forced-evict": (
        "CostEngine.env_rows call; fires an adversarial LRU chunk eviction "
        "under the probe (the probed node's chunk is exempt)"
    ),
    "engine.numpy-import": (
        "resolve_backend's numpy availability check; models numpy missing "
        "or broken at engine-construction time (auto -> python)"
    ),
    "engine.row-poison": (
        "CostEngine.env_rows fill, once per row; caches a subtly wrong copy so only "
        "verify_every sampling can catch it on a later hit"
    ),
    "fractional.lp-solve": (
        "FractionalEngine best-response LP solve; models a scipy solver "
        "failure (retry once, then FlowNetwork reference fallback)"
    ),
    "parallel.pool-start": (
        "parallel_map process-pool construction; models a pool that cannot "
        "start (serial-fallback rung)"
    ),
    "parallel.task": (
        "parallel_map worker task execution, keyed (index, attempt); models "
        "worker exceptions, crashes, and hangs"
    ),
    "search.profile": (
        "exhaustive_equilibrium_search per-profile evaluation, keyed by "
        "profile rank; models a failure mid-sweep between checkpoints"
    ),
    "service.query": (
        "GameService read-query dispatch, keyed (game, kind); models a "
        "handler failure inside the serving layer (typed InjectedFault "
        "error response, worker loop survives)"
    ),
    "service.update": (
        "GameService strategy-update commit, keyed (game, node); fires "
        "before any state changes so a drilled failure never publishes a "
        "half-applied version"
    ),
}


def is_registered_fault_site(name: str) -> bool:
    """Whether ``name`` is registered (the ``test.`` namespace passes)."""
    return name.startswith(TEST_SITE_NAMESPACE) or name in REGISTERED_FAULT_SITES


def register_fault_site(name: str, description: str) -> None:
    """Register an extension fault site (idempotent for identical entries).

    Re-registering a name with a *different* description raises — two
    subsystems silently sharing one site name is exactly the confusion the
    registry exists to prevent.
    """
    existing = REGISTERED_FAULT_SITES.get(name)
    if existing is not None and existing != description:
        raise ValueError(
            f"fault site {name!r} already registered with a different "
            f"description: {existing!r}"
        )
    REGISTERED_FAULT_SITES[name] = description


__all__ = [
    "REGISTERED_FAULT_SITES",
    "TEST_SITE_NAMESPACE",
    "is_registered_fault_site",
    "register_fault_site",
]
