"""The always-on game service: a batched async API over warm engines.

The service is the subsystem whose state *outlives a single entry-point
call*.  It is built **on top of** the reliability runtime
(:mod:`repro.reliability`), not beside it: warm engines keep answering after
a corrupted cache row (``verify_every`` self-verification) or a solver
hiccup (the LP retry-then-reference fallback), and every availability claim
is CI-verified under seeded :class:`~repro.reliability.FaultPlan`\\ s.

The layer cake, bottom up:

* :mod:`repro.service.errors` — the documented typed errors a client can
  observe.  The service-wide contract is the engine's failure semantics
  promoted to the serving boundary: every response is either bit-identical
  to its fault-free run or one of these errors.
* :mod:`repro.service.metrics` — exact (never sampled) per-game counters:
  query/error tallies, batch coalescing, and a bounded latency reservoir
  for p50/p99.  A ``stats()`` query adds a copy of the engine's own exact
  ``stats`` counters.  Its payloads are freshly built dicts — alias-free,
  the RPR006 discipline applied to the metrics surface.
* :mod:`repro.service.catalog` — :class:`GameCatalog` /
  :class:`GameEntry`: named registration and eviction of live games
  (uniform, weighted, fractional) with their warm engines, plus the
  **reader/writer version contract**: one monotone service version per
  game, reads answered at exactly one version (pinnable, with
  :class:`~repro.service.errors.StaleVersionError` as the documented miss),
  writes committed atomically through validation → engine sync → publish.
* :mod:`repro.service.batching` — :class:`Query` / :class:`Response` and
  the coalescing executor: a run of concurrent reads against one game
  version stages the rows its queries read through
  :meth:`~repro.engine.CostEngine.plan_report_prefetch` and drains them in
  giant multi-source traversals, bit-identical to serving each query
  alone.
* :mod:`repro.service.service` — :class:`GameService`: one asyncio worker
  per game serializing batched reads and single-node updates (the
  incremental repair path) without locks.

``docs/service.md`` is the client-facing guide; ``tests/test_service.py``
holds the fault drill, run on both dependency legs.
"""

from .batching import (
    QUERY_KINDS,
    Query,
    Response,
    execute_batch,
    execute_query,
)
from .catalog import GameCatalog, GameEntry
from .errors import (
    DuplicateGameError,
    InvalidQueryError,
    QueryFailedError,
    ServiceClosedError,
    ServiceError,
    StaleVersionError,
    UnknownGameError,
)
from .metrics import GameMetrics
from .service import GameService

__all__ = [
    "DuplicateGameError",
    "GameCatalog",
    "GameEntry",
    "GameMetrics",
    "GameService",
    "InvalidQueryError",
    "QUERY_KINDS",
    "Query",
    "QueryFailedError",
    "Response",
    "ServiceClosedError",
    "ServiceError",
    "StaleVersionError",
    "UnknownGameError",
    "execute_batch",
    "execute_query",
]
