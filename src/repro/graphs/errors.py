"""Exceptions raised by the graph substrate.

The graph layer is deliberately independent from the game layer, so it has
its own small exception hierarchy rooted at :class:`GraphError`.
"""

from __future__ import annotations


class GraphError(Exception):
    """Base class for all errors raised by :mod:`repro.graphs`."""


class NodeNotFound(GraphError):
    """Raised when an operation references a node that is not in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class NegativeEdgeLength(GraphError):
    """Raised when Dijkstra-style algorithms encounter a negative length."""

    def __init__(self, tail: object, head: object, length: float) -> None:
        super().__init__(
            f"edge ({tail!r}, {head!r}) has negative length {length!r}; "
            "shortest-path routines in this package require non-negative lengths"
        )
        self.tail = tail
        self.head = head
        self.length = length


class FlowError(GraphError):
    """Base class for errors raised by the min-cost flow solver."""


class InfeasibleFlow(FlowError):
    """Raised when the requested flow value cannot be routed."""

    def __init__(self, source: object, sink: object, requested: float, routed: float) -> None:
        super().__init__(
            f"cannot route {requested!r} units of flow from {source!r} to {sink!r}; "
            f"only {routed!r} units are feasible"
        )
        self.source = source
        self.sink = sink
        self.requested = requested
        self.routed = routed
