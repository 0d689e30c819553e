"""Query model and batched execution against one catalog entry.

The service's unit of work is a **batch**: the run of read queries its
worker loop drained from the queue between two strategy updates.  All reads
in a batch execute against the same ``(version, profile)`` pair, and for
integral games the rows the batch's queries read are staged up front through
:meth:`~repro.engine.CostEngine.plan_report_prefetch` — the same giant-batch
substrate whole-profile reports ride — so ``q`` concurrent cost /
best-response / what-if queries against one game version cost one
giant-batch fill per chunk instead of ``q`` small batches.  The plan lists
only the queried nodes: rows of nodes no query touches are neither planned
nor repaired.  Coalescing changes only *when* rows are computed, never their
values (the engine's giant-batch contract), so a batched response is
bit-identical to the same query served alone.

Each query yields exactly one :class:`Response`: either a payload or a
*documented typed error* (see :mod:`repro.service.errors`); a handler
exception can never take down the worker loop.  Payloads are plain
JSON-able scalars/dicts/lists, deterministically ordered, so two identical
query scripts produce byte-identical response streams — the property the
fault drill in ``tests/test_service.py`` asserts under injection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.best_response import best_response
from ..core.equilibrium import equilibrium_report
from ..core.errors import BBCError
from ..core.fractional import epsilon_equilibrium_report, fractional_best_response
from ..reliability.faults import fault_point
from .catalog import KIND_FRACTIONAL, GameEntry
from .errors import InvalidQueryError, QueryFailedError

#: Read query kinds (``update`` is the one write and is not a Query kind —
#: the service routes it through :meth:`GameEntry.apply_update`).
QUERY_KINDS = (
    "cost",
    "all_costs",
    "social_cost",
    "best_response",
    "what_if",
    "report",
    "stats",
)

#: Kinds that touch distance rows and therefore count toward coalescing
#: metrics (``stats`` is pure bookkeeping).
ROW_QUERY_KINDS = frozenset(QUERY_KINDS) - {"stats"}

#: Default epsilon for fractional ``report`` queries (matches
#: :func:`repro.core.fractional.epsilon_equilibrium_report`).
FRACTIONAL_REPORT_EPSILON = 1e-5


@dataclass(frozen=True)
class Query:
    """One read query against a named game.

    ``kind`` is one of :data:`QUERY_KINDS`.  ``node`` names the probed
    player for ``cost`` / ``best_response`` / ``what_if``; ``strategy``
    carries the hypothetical strategy of a ``what_if`` (an iterable of
    target labels for integral games, a ``{target: capacity}`` mapping for
    fractional ones); ``candidates`` optionally restricts the deviation
    targets of ``best_response`` (a sequence) or ``report`` (a per-node
    mapping).  ``version`` pins the read: the query fails with
    :class:`~repro.service.errors.StaleVersionError` unless the game is
    still at exactly that version.
    """

    kind: str
    node: object = None
    strategy: object = None
    candidates: object = None
    version: Optional[int] = None


@dataclass(frozen=True)
class Response:
    """The outcome of one query: a payload or a documented typed error."""

    game: str
    kind: str
    version: int
    payload: object = None
    error: Optional[str] = None
    error_message: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def comparable(self) -> tuple:
        """The deterministic identity of this response (no latency, no ids).

        The fault drill compares these across a healthy and a fault-injected
        run: equal tuples mean bit-identical service behaviour.
        """
        return (
            self.game,
            self.kind,
            self.version,
            self.payload,
            self.error,
        )


def _sorted_labels(labels) -> list:
    """Deterministic node-label ordering (labels may be of mixed types)."""
    return sorted(labels, key=repr)


def _best_response_payload(result) -> Dict[str, object]:
    return {
        "node": result.node,
        "current_cost": result.current_cost,
        "best_cost": result.best_cost,
        "regret": result.regret,
        "improved": result.improved,
        "best_strategy": _sorted_labels(result.best_strategy),
    }


def _report_payload(report) -> Dict[str, object]:
    return {
        "is_equilibrium": report.is_equilibrium,
        "max_regret": report.max_regret,
        "unstable_nodes": _sorted_labels(report.unstable_nodes),
        "nodes_checked": len(report.responses),
    }


def _stats_payload(entry: GameEntry) -> Dict[str, object]:
    payload = entry.metrics.snapshot()
    payload["name"] = entry.name
    payload["kind"] = entry.kind
    payload["version"] = entry.version
    # The engine's own exact counters, under its own names (no wall-clock
    # gauges: snapshot_stats() would add traversal_seconds).
    engine = dict(entry.engine.stats) if entry.engine is not None else {}
    payload["engine"] = engine
    hits = engine.get("rows_reused", 0)
    touched = hits + engine.get("rows_repaired", 0) + engine.get("rows_computed", 0)
    payload["cache_hit_rate"] = hits / touched if touched else 0.0
    cache_bytes = getattr(entry.engine, "cache_bytes", None)
    if callable(cache_bytes):
        payload["cache_bytes"] = cache_bytes()
    return payload


def _execute_integral(entry: GameEntry, query: Query):
    game, engine, profile = entry.game, entry.engine, entry.profile
    if query.kind == "cost":
        engine.sync(profile)
        return engine.cost_of(query.node, profile.strategy(query.node))
    if query.kind == "all_costs":
        costs = game.all_costs(profile, engine=engine)
        return {label: costs[label] for label in _sorted_labels(costs)}
    if query.kind == "social_cost":
        return game.social_cost(profile, engine=engine)
    if query.kind == "best_response":
        result = best_response(
            game, profile, query.node, candidates=query.candidates, engine=engine
        )
        return _best_response_payload(result)
    if query.kind == "what_if":
        validated = game.validate_strategy(query.node, query.strategy)
        engine.sync(profile)
        return engine.cost_of(query.node, validated)
    if query.kind == "report":
        report = equilibrium_report(
            game, profile, candidates=query.candidates, engine=engine
        )
        return _report_payload(report)
    raise InvalidQueryError(f"unknown query kind {query.kind!r}")


def _execute_fractional(entry: GameEntry, query: Query):
    game, profile, flag = entry.game, entry.profile, entry.engine_flag
    if query.kind == "cost":
        return game.node_cost(profile, query.node, engine=flag)
    if query.kind == "all_costs":
        costs = game.all_costs(profile, engine=flag)
        return {label: costs[label] for label in _sorted_labels(costs)}
    if query.kind == "social_cost":
        return game.social_cost(profile, engine=flag)
    if query.kind == "best_response":
        result = fractional_best_response(game, profile, query.node, engine=flag)
        return {
            "node": result.node,
            "current_cost": result.current_cost,
            "best_cost": result.best_cost,
            "regret": result.regret,
            "improved": result.improved,
            "best_strategy": {
                target: result.best_strategy[target]
                for target in _sorted_labels(result.best_strategy)
            },
        }
    if query.kind == "what_if":
        # Evaluated on the dependency-free reference path: the hypothetical
        # profile must not churn the warm engine's version (and the
        # FlowNetwork path is exact for cost evaluation).
        hypothetical = profile.with_strategy(query.node, dict(query.strategy))
        return game.node_cost(hypothetical, query.node, engine=False)
    if query.kind == "report":
        report = epsilon_equilibrium_report(
            game, profile, epsilon=FRACTIONAL_REPORT_EPSILON, engine=flag
        )
        return {
            "is_equilibrium": report.is_epsilon_equilibrium,
            "max_regret": report.max_regret,
            "epsilon": report.epsilon,
            "nodes_checked": len(report.regrets),
        }
    raise InvalidQueryError(f"unknown query kind {query.kind!r}")


def _respond(entry: GameEntry, kind: str, work: Callable[[], object]) -> Response:
    """Run ``work`` behind the service's one typed-error boundary.

    The payload ``work`` returns, a documented :class:`BBCError`, or any
    other exception wrapped as :class:`QueryFailedError` becomes exactly one
    :class:`Response` at the entry's version after the call; the latency
    and any error are recorded in the entry's metrics either way.
    """
    started = time.perf_counter()
    try:
        payload = work()
    except BBCError as exc:
        error = exc
    except Exception as exc:  # noqa: BLE001 - terminal typed-error catch-all
        error = QueryFailedError(kind, exc)
    else:
        error = None
    entry.metrics.record_query(kind, time.perf_counter() - started)
    if error is None:
        return Response(game=entry.name, kind=kind, version=entry.version, payload=payload)
    entry.metrics.record_error(type(error).__name__)
    return Response(
        game=entry.name,
        kind=kind,
        version=entry.version,
        error=type(error).__name__,
        error_message=str(error),
    )


def _serve_query(entry: GameEntry, query: Query):
    if query.kind not in QUERY_KINDS:
        raise InvalidQueryError(
            f"unknown query kind {query.kind!r}; expected one of "
            f"{', '.join(QUERY_KINDS)}"
        )
    entry.check_version(query.version)
    # The service-level fault site: an armed rule here models a handler
    # crash *inside* the serving layer (as opposed to the engine-level
    # sites it composes with); the query gets a typed InjectedFault
    # error response and the worker loop carries on.
    fault_point("service.query", key=(entry.name, query.kind))
    if query.kind == "stats":
        return _stats_payload(entry)
    if entry.kind == KIND_FRACTIONAL:
        return _execute_fractional(entry, query)
    return _execute_integral(entry, query)


def execute_query(entry: GameEntry, query: Query) -> Response:
    """Execute one query against ``entry``, mapping failures to typed errors."""
    return _respond(entry, query.kind, lambda: _serve_query(entry, query))


def _plan_candidates(entry: GameEntry, queries: List[Query]) -> Dict[object, list]:
    """Build the prefetch restriction map for a batch of integral reads.

    Maps each node a ``cost`` / ``best_response`` / ``what_if`` query probes
    to the first hops it reads beyond its current arcs, which the engine
    adds itself: a ``best_response``'s candidates, a ``what_if``'s
    hypothetical targets, nothing for a plain ``cost``.  The engine plans
    exactly the listed nodes.  ``report`` queries stage their own plan
    through :func:`~repro.core.equilibrium.equilibrium_report`, and
    ``all_costs`` / ``social_cost`` use the engine's own batched full-row
    sweep, so none of them is listed.
    """
    touched: Dict[object, list] = {}
    for query in queries:
        if query.kind == "best_response":
            wanted = (
                list(query.candidates)
                if query.candidates is not None
                else [v for v in entry.game.nodes if v != query.node]
            )
        elif query.kind == "what_if":
            wanted = list(query.strategy) if query.strategy else []
        elif query.kind == "cost":
            wanted = []
        else:
            continue
        seen = touched.setdefault(query.node, [])
        touched[query.node] = list(dict.fromkeys([*seen, *wanted]))
    return touched


def execute_batch(entry: GameEntry, queries: List[Query]) -> List[Response]:
    """Execute a drained run of read queries as one coalesced batch.

    For integral entries with at least two row-touching queries, the rows
    of the queried nodes (:func:`_plan_candidates`) are staged via
    ``plan_report_prefetch`` first, so the per-query probes drain giant
    chunks instead of issuing per-node traversals.  Order is preserved;
    every query gets exactly one response.
    """
    row_queries = [q for q in queries if q.kind in ROW_QUERY_KINDS]
    if (
        entry.kind != KIND_FRACTIONAL
        and len(row_queries) > 1
        and entry.engine is not None
    ):
        try:
            candidates = _plan_candidates(entry, row_queries)
            if candidates:
                entry.engine.plan_report_prefetch(entry.profile, candidates)
        except BBCError:
            # Planning is an optimisation only — never let it fail a batch;
            # the per-query path recomputes whatever was not staged.
            pass
    responses = [execute_query(entry, query) for query in queries]
    if row_queries:
        entry.metrics.record_batch(len(row_queries))
    return responses


__all__ = [
    "FRACTIONAL_REPORT_EPSILON",
    "Query",
    "QUERY_KINDS",
    "ROW_QUERY_KINDS",
    "Response",
    "execute_batch",
    "execute_query",
]
