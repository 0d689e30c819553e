"""Span tracing and timing wrappers installed around the library's layers.

Nothing here edits the library: every probe is a wrapper bound over a
module attribute or a class attribute for the duration of one traced
iteration, and :func:`patched` puts the original back afterwards.  Spans hold
a name, start, end and parent, are kept in memory, and are reduced at the
end of the iteration into per-name call counts and **exclusive** (self)
times: a span's duration minus the durations of its direct children.
"""

import contextlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import repro.core.equilibrium as _equilibrium
import repro.dynamics.walk as _walk
import repro.engine.cost_engine as _cost_engine
import repro.engine.fractional_engine as _fractional_engine
import repro.engine.indexed as _indexed
import repro.service.batching as _batching
import repro.service.catalog as _catalog
import repro.service.service as _service

try:  # The numpy kernels are absent on the minimal dependency set.
    import repro.graphs.int_kernels_np as _kernels_np
except ImportError:  # pragma: no cover - the layer guard rejects such runs
    _kernels_np = None

NS = 1e-9


class Tracer:
    """In-memory span recorder with a parent stack (single-threaded)."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: ``[name, start_ns, end_ns, parent_index]`` per span, in start order.
        self.spans: List[list] = []
        #: Work counts attached to spans (rows traversed, strategies scored).
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), 0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, work: Optional[Callable] = None):
        """Return ``fn`` wrapped in a span; ``work(args, kwargs, result)``
        adds to ``counts[name]`` after each call."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if work is not None:
                tracer.counts[name] += work(args, kwargs, result)
            return result

        return traced

    def self_times(self, root: int) -> Dict[str, Dict[str, float]]:
        """Per-name ``{"calls", "self_s"}`` over ``root``'s descendants.

        The root itself is reported under its own name, so the self times of
        every entry sum to the root's duration exactly (in integer ns).
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        inside = [False] * len(spans)
        inside[root] = True
        for index in range(root + 1, len(spans)):
            parent = spans[index][3]
            if parent >= 0 and inside[parent]:
                inside[index] = True
                child_ns[parent] += spans[index][2] - spans[index][1]
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent) in enumerate(spans):
            if not inside[index]:
                continue
            entry = totals.setdefault(name, {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[index]
        return {
            name: {"calls": entry["calls"], "self_s": entry["self_ns"] * NS}
            for name, entry in totals.items()
        }


@contextlib.contextmanager
def patched(bindings):
    """Bind ``(owner, attribute, replacement)`` triples, restoring on exit."""
    saved = []
    try:
        for owner, attribute, replacement in bindings:
            saved.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, replacement)
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _one(args, kwargs, result):
    return 1


def _sources_at(position):
    def rows(args, kwargs, result):
        sources = kwargs["sources"] if "sources" in kwargs else args[position]
        return len(sources)

    return rows


def _vector_length(args, kwargs, result):
    return len(result)


def _planned_rows(args, kwargs, result):
    return int(result)


def _batch_queries(args, kwargs, result):
    return len(args[1])


def layer_bindings():
    """Which library callable belongs to which layer span.

    Returns ``(span name, owner, attribute, work counter)`` rows.  Kernels
    bound by name into ``repro.engine.cost_engine`` are rebound there (the
    engine looks them up as module globals); the numpy kernels are looked
    up on their module.
    """
    sources_bfs, sources_dijkstra = _sources_at(3), _sources_at(4)
    table = [
        ("indexed.build", _indexed.IndexedGame, "__init__", None),
        ("sync", _cost_engine.CostEngine, "sync", None),
        ("plan", _cost_engine.CostEngine, "plan_report_prefetch", _planned_rows),
        ("list_traverse", _cost_engine, "bfs_hops_csr", None),
        ("list_traverse", _cost_engine, "dijkstra_csr", None),
        ("list_traverse", _cost_engine, "bfs_hops_csr_multi", None),
        ("list_traverse", _cost_engine, "dijkstra_csr_multi", None),
        ("repair", _cost_engine, "repair_hops_csr", None),
        ("repair", _cost_engine, "repair_dijkstra_csr", None),
        ("score", _cost_engine.StrategyScorer, "score_combinations", _vector_length),
        ("score", _cost_engine.StrategyScorer, "score_ints", _one),
        ("best_response", _equilibrium, "best_response", None),
        ("best_response", _walk, "best_response", None),
        ("best_response", _batching, "best_response", None),
        ("fractional", _fractional_engine.FractionalEngine, "best_response", None),
        ("fractional", _fractional_engine.FractionalEngine, "node_cost", None),
        ("service.batch", _service, "execute_batch", _batch_queries),
        ("service.update", _catalog.GameEntry, "apply_update", None),
    ]
    if _kernels_np is not None:
        table += [
            ("np_traverse", _kernels_np, "bfs_hops_csr_multi", sources_bfs),
            ("np_traverse", _kernels_np, "dijkstra_csr_multi", sources_dijkstra),
            ("np_traverse", _kernels_np, "bfs_hops_csr_np", _one),
            ("np_traverse", _kernels_np, "dijkstra_csr_np", _one),
            ("repair", _kernels_np, "repair_hops_csr_np", None),
            ("repair", _kernels_np, "repair_dijkstra_csr_np", None),
        ]
    return table


def tracing(tracer: Tracer):
    """Context manager wrapping every layer of :func:`layer_bindings`."""
    return patched(
        (owner, attribute, tracer.wrap(name, owner.__dict__[attribute], work))
        for name, owner, attribute, work in layer_bindings()
    )


def timed(samples: List[float], fn, keep=None):
    """Wrap ``fn`` to append each call's seconds to ``samples`` (optionally
    only when ``keep(result)`` holds)."""
    clock = time.perf_counter

    def timed_call(*args, **kwargs):
        started = clock()
        result = fn(*args, **kwargs)
        if keep is None or keep(result):
            samples.append(clock() - started)
        return result

    return timed_call


def changed_sync(result) -> bool:
    """A sync that changed the engine's profile (``()`` is the no-op)."""
    return result != ()
