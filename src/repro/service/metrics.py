"""Per-game service metrics: exact counters plus a latency reservoir.

Every counter here is **exact**, not sampled: query counts, batch sizes, and
error tallies are incremented by the worker loop itself.  The cache /
repair / traversal counters are not copied here at all: a ``stats`` query
reads the entry engine's own ``stats`` dict, under the engine's own names.
A deterministic query script therefore produces bit-reproducible counter
values — ``tests/test_service.py`` pins them — so a drifting hit rate in
production is a real behaviour change, never sampling noise.

Latency quantiles are the one deliberately non-deterministic reading (they
measure wall clock).  They live in a bounded reservoir that keeps the most
recent :data:`LATENCY_RESERVOIR_LIMIT` observations; p50/p99 are
nearest-rank over the retained window.

:meth:`GameMetrics.snapshot` returns freshly built plain dicts — mutating a
snapshot can never poison the registry (the same no-aliasing discipline lint
rule RPR006 enforces on the engines' cached rows).
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: How many recent per-query latencies the quantile window retains.
LATENCY_RESERVOIR_LIMIT = 8192


def nearest_rank(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile ``q`` in [0, 1] of a pre-sorted list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


class GameMetrics:
    """Exact per-game counters maintained by the service worker loop."""

    def __init__(self) -> None:
        #: Queries answered, by kind (including error responses).
        self.queries: Dict[str, int] = {}
        #: Error responses returned, by error class name.
        self.errors: Dict[str, int] = {}
        #: Committed strategy updates (version bumps).
        self.updates = 0
        #: Read batches executed, and how many queries rode in them.  A
        #: batch of one is not *coalesced*; ``coalesced_queries`` counts only
        #: queries that shared their batch with at least one other query, so
        #: ``coalesced_queries / batched_queries`` is the win rate and
        #: ``batched_queries / batches`` the mean coalescing factor.
        self.batches = 0
        self.batched_queries = 0
        self.coalesced_queries = 0
        self.max_batch = 0
        self._latencies: List[float] = []

    # ------------------------------------------------------------------ #
    # Recording (worker loop only)
    # ------------------------------------------------------------------ #
    def record_query(self, kind: str, seconds: Optional[float] = None) -> None:
        self.queries[kind] = self.queries.get(kind, 0) + 1
        if seconds is not None:
            self._latencies.append(seconds)
            if len(self._latencies) > LATENCY_RESERVOIR_LIMIT:
                del self._latencies[: len(self._latencies) // 2]

    def record_error(self, error_name: str) -> None:
        self.errors[error_name] = self.errors.get(error_name, 0) + 1

    def record_batch(self, size: int) -> None:
        if size <= 0:
            return
        self.batches += 1
        self.batched_queries += size
        if size > 1:
            self.coalesced_queries += size
        if size > self.max_batch:
            self.max_batch = size

    def record_update(self) -> None:
        self.updates += 1

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def coalescing_factor(self) -> float:
        """Mean read-batch size (1.0 when nothing ever coalesced)."""
        if not self.batches:
            return 0.0
        return self.batched_queries / self.batches

    def snapshot(self) -> Dict[str, object]:
        """Return a freshly built, alias-free snapshot of every reading.

        The returned dict (and every nested dict) is new on each call;
        callers may mutate it freely without affecting the registry, and two
        consecutive calls with no traffic in between compare equal.
        """
        ordered = sorted(self._latencies)
        return {
            "queries": dict(self.queries),
            "errors": dict(self.errors),
            "updates": self.updates,
            "batches": self.batches,
            "batched_queries": self.batched_queries,
            "coalesced_queries": self.coalesced_queries,
            "max_batch": self.max_batch,
            "coalescing_factor": self.coalescing_factor(),
            "latency_count": len(ordered),
            "latency_p50_s": nearest_rank(ordered, 0.50),
            "latency_p99_s": nearest_rank(ordered, 0.99),
        }


__all__ = [
    "GameMetrics",
    "LATENCY_RESERVOIR_LIMIT",
    "nearest_rank",
]
