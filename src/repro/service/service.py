"""The always-on asyncio serving layer over a :class:`GameCatalog`.

One :class:`GameService` hosts many live games behind a single event loop.
Per game there is one ``asyncio.Queue`` and one long-lived worker task; the
worker drains **everything currently queued** in one go, executes maximal
runs of consecutive read queries as one coalesced batch
(:func:`~repro.service.batching.execute_batch` — the giant-batch traversal
substrate), and applies strategy updates one at a time between runs (each a
single-node engine sync, i.e. the incremental repair path).  Because all
work for a game funnels through its worker, the catalog's reader/writer
version contract holds without locks: reads never observe a half-applied
update, and an update stream interleaves deterministically with the read
runs around it.

The loop is deliberately stdlib-only and in-process (queries are CPU-bound
engine calls; an HTTP front can be layered on later, as the ROADMAP notes).
Every submitted query resolves to exactly one
:class:`~repro.service.batching.Response` — payload or documented typed
error — even under an armed :class:`~repro.reliability.FaultPlan`; a worker
task never dies with a query in flight.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence

from ..reliability.faults import fault_point
from .batching import Query, Response, _respond, execute_batch
from .catalog import GameCatalog, GameEntry
from .errors import ServiceClosedError, UnknownGameError

#: Queue sentinel that tells a worker to shut down after failing the
#: remaining queued work with :class:`ServiceClosedError`.
_SHUTDOWN = object()


class _QueuedQuery:
    """One queued read: the query plus the future its response resolves."""

    __slots__ = ("query", "future")

    def __init__(self, query: Query, future: "asyncio.Future") -> None:
        self.query = query
        self.future = future


class _QueuedUpdate:
    """One queued write: node, new strategy, and the resolving future."""

    __slots__ = ("node", "strategy", "future")

    def __init__(self, node, strategy, future: "asyncio.Future") -> None:
        self.node = node
        self.strategy = strategy
        self.future = future


def _apply_update(entry: GameEntry, node, strategy) -> Response:
    """Commit one strategy update, mapping failures to typed error responses."""

    def commit():
        # The write-side fault site: an armed rule fires *before* any state
        # changes, so a drilled update failure leaves the version and
        # profile exactly as the documented contract requires.
        fault_point("service.update", key=(entry.name, node))
        return {"version": entry.apply_update(node, strategy), "node": node}

    return _respond(entry, "update", commit)


class GameService:
    """Batched async queries and serialized updates over a game catalog."""

    def __init__(self, catalog: Optional[GameCatalog] = None) -> None:
        self.catalog = catalog if catalog is not None else GameCatalog()
        self._queues: Dict[str, "asyncio.Queue"] = {}
        self._workers: Dict[str, "asyncio.Task"] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def register(self, name: str, game, **kwargs) -> GameEntry:
        """Register a game (see :meth:`GameCatalog.register`); queries may
        be submitted for it immediately afterwards."""
        if self._closed:
            raise ServiceClosedError("the service is closed")
        return self.catalog.register(name, game, **kwargs)

    async def evict(self, name: str) -> None:
        """Stop ``name``'s worker (draining its queue) and drop the entry."""
        if name not in self.catalog:
            raise UnknownGameError(name)
        await self._stop_worker(name)
        self.catalog.evict(name)

    async def close(self) -> None:
        """Shut every worker down; queued work fails with ServiceClosedError."""
        self._closed = True
        for name in list(self._workers):
            await self._stop_worker(name)

    async def __aenter__(self) -> "GameService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _stop_worker(self, name: str) -> None:
        worker = self._workers.pop(name, None)
        queue = self._queues.pop(name, None)
        if worker is None or queue is None:
            return
        queue.put_nowait(_SHUTDOWN)
        await worker

    def _queue_for(self, name: str) -> "asyncio.Queue":
        if self._closed:
            raise ServiceClosedError("the service is closed")
        if name not in self.catalog:
            raise UnknownGameError(name)
        queue = self._queues.get(name)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[name] = queue
            self._workers[name] = asyncio.get_running_loop().create_task(
                self._worker(name, queue)
            )
        return queue

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    async def submit(self, name: str, query: Query) -> Response:
        """Submit one read query; resolves when its batch executes."""
        queue = self._queue_for(name)
        future = asyncio.get_running_loop().create_future()
        queue.put_nowait(_QueuedQuery(query, future))
        return await future

    async def gather(self, name: str, queries: Sequence[Query]) -> List[Response]:
        """Submit several reads at once (they enqueue together, so they are
        guaranteed to coalesce into one batch)."""
        queue = self._queue_for(name)
        loop = asyncio.get_running_loop()
        futures = []
        for query in queries:
            future = loop.create_future()
            queue.put_nowait(_QueuedQuery(query, future))
            futures.append(future)
        return list(await asyncio.gather(*futures))

    async def update(self, name: str, node, strategy) -> Response:
        """Submit a strategy update; resolves once it commits (or fails typed)."""
        queue = self._queue_for(name)
        future = asyncio.get_running_loop().create_future()
        queue.put_nowait(_QueuedUpdate(node, strategy, future))
        return await future

    # Convenience one-call forms ---------------------------------------- #
    async def cost(self, name: str, node, *, version: Optional[int] = None) -> Response:
        return await self.submit(name, Query(kind="cost", node=node, version=version))

    async def all_costs(self, name: str, *, version: Optional[int] = None) -> Response:
        return await self.submit(name, Query(kind="all_costs", version=version))

    async def social_cost(self, name: str, *, version: Optional[int] = None) -> Response:
        return await self.submit(name, Query(kind="social_cost", version=version))

    async def best_response(
        self, name: str, node, *, candidates=None, version: Optional[int] = None
    ) -> Response:
        return await self.submit(
            name,
            Query(kind="best_response", node=node, candidates=candidates, version=version),
        )

    async def what_if(
        self, name: str, node, strategy, *, version: Optional[int] = None
    ) -> Response:
        return await self.submit(
            name, Query(kind="what_if", node=node, strategy=strategy, version=version)
        )

    async def report(
        self, name: str, *, candidates=None, version: Optional[int] = None
    ) -> Response:
        return await self.submit(
            name, Query(kind="report", candidates=candidates, version=version)
        )

    async def stats(self, name: str) -> Response:
        return await self.submit(name, Query(kind="stats"))

    # ------------------------------------------------------------------ #
    # The per-game worker
    # ------------------------------------------------------------------ #
    async def _worker(self, name: str, queue: "asyncio.Queue") -> None:
        while True:
            items = [await queue.get()]
            while True:
                try:
                    items.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            shutdown = False
            run: List[_QueuedQuery] = []
            for item in items:
                if item is _SHUTDOWN or shutdown:
                    shutdown = True
                    if item is not _SHUTDOWN:
                        self._fail_closed(item)
                    continue
                if isinstance(item, _QueuedQuery):
                    run.append(item)
                    continue
                # An update closes the current read run (reads before it see
                # the old version, reads after it the new one).
                self._flush_run(name, run)
                run = []
                self._commit_update(name, item)
            self._flush_run(name, run)
            if shutdown:
                self._drain_closed(queue)
                return
            # One cooperative yield per drained wave, so a flood of queued
            # work cannot starve other games' workers (each wave batches
            # everything that arrived while this one executed).
            await asyncio.sleep(0)

    def _flush_run(self, name: str, run: List[_QueuedQuery]) -> None:
        if not run:
            return
        try:
            entry = self.catalog.entry(name)
        except UnknownGameError:
            for item in run:
                if not item.future.done():
                    item.future.set_exception(UnknownGameError(name))
            return
        responses = execute_batch(entry, [item.query for item in run])
        for item, response in zip(run, responses):
            if not item.future.done():
                item.future.set_result(response)

    def _commit_update(self, name: str, item: _QueuedUpdate) -> None:
        try:
            entry = self.catalog.entry(name)
        except UnknownGameError:
            if not item.future.done():
                item.future.set_exception(UnknownGameError(name))
            return
        response = _apply_update(entry, item.node, item.strategy)
        if not item.future.done():
            item.future.set_result(response)

    def _fail_closed(self, item) -> None:
        future = getattr(item, "future", None)
        if future is not None and not future.done():
            future.set_exception(ServiceClosedError("the service is closed"))

    def _drain_closed(self, queue: "asyncio.Queue") -> None:
        while True:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is not _SHUTDOWN:
                self._fail_closed(item)


__all__ = ["GameService"]
