"""Minimum-cost flow via successive shortest augmenting paths.

Fractional BBC games (Section 3.2 of the paper) define a node's cost through
minimum-cost *unit* flows in a network whose capacities are the fractional
link purchases.  Capacities and flow values are therefore real numbers, so
the solver works with floats and a small tolerance.

The implementation is the classic successive-shortest-paths algorithm with
Johnson potentials: as long as edge costs are non-negative (true for BBC link
lengths and the disconnection penalty), each augmentation can use Dijkstra on
reduced costs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from .errors import InfeasibleFlow, NegativeEdgeLength

Node = Hashable

_EPS = 1e-9


@dataclass
class _Arc:
    """Internal arc record; ``partner`` indexes the reverse residual arc."""

    head: int
    capacity: float
    cost: float
    flow: float = 0.0
    partner: int = -1

    @property
    def residual(self) -> float:
        return self.capacity - self.flow


@dataclass
class FlowNetwork:
    """A directed flow network with float capacities and costs.

    Nodes may be arbitrary hashable objects; they are indexed internally.
    Parallel edges are supported (the fractional game adds both a purchased
    capacity edge and an "always available" penalty edge between the same
    pair of nodes).
    """

    _index_of: Dict[Node, int] = field(default_factory=dict)
    _labels: List[Node] = field(default_factory=list)
    _arcs: List[_Arc] = field(default_factory=list)
    _out: List[List[int]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: Node) -> int:
        """Ensure ``node`` exists and return its internal index."""
        if node in self._index_of:
            return self._index_of[node]
        idx = len(self._labels)
        self._index_of[node] = idx
        self._labels.append(node)
        self._out.append([])
        return idx

    def add_edge(self, tail: Node, head: Node, capacity: float, cost: float) -> int:
        """Add a directed arc and its residual partner; return the arc id."""
        if cost < 0:
            raise NegativeEdgeLength(tail, head, cost)
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity!r}")
        tail_idx = self.add_node(tail)
        head_idx = self.add_node(head)
        forward = _Arc(head=head_idx, capacity=capacity, cost=cost)
        backward = _Arc(head=tail_idx, capacity=0.0, cost=-cost)
        forward_id = len(self._arcs)
        backward_id = forward_id + 1
        forward.partner = backward_id
        backward.partner = forward_id
        self._arcs.append(forward)
        self._arcs.append(backward)
        self._out[tail_idx].append(forward_id)
        self._out[head_idx].append(backward_id)
        return forward_id

    def number_of_nodes(self) -> int:
        """Return the number of nodes added so far."""
        return len(self._labels)

    def has_node(self, node: Node) -> bool:
        """Return ``True`` if ``node`` has been added."""
        return node in self._index_of

    # ------------------------------------------------------------------ #
    # Min-cost flow
    # ------------------------------------------------------------------ #
    def reset_flow(self) -> None:
        """Zero out the flow on every arc so the network can be reused."""
        for arc in self._arcs:
            arc.flow = 0.0

    def min_cost_flow(
        self, source: Node, sink: Node, value: float, *, overflow_cost: Optional[float] = None
    ) -> Tuple[float, Dict[int, float]]:
        """Route ``value`` units from ``source`` to ``sink`` at minimum cost.

        Returns ``(total_cost, {arc_id: flow})`` for forward arcs carrying
        positive flow.  Raises :class:`InfeasibleFlow` if less than ``value``
        can be routed.

        When ``overflow_cost`` is given, any part of ``value`` that cannot be
        routed more cheaply than ``overflow_cost`` per unit is absorbed at
        exactly that price instead of raising.  Because successive shortest
        paths augment in non-decreasing path-cost order, this is equivalent to
        adding an uncapacitated ``source -> sink`` edge of cost
        ``overflow_cost`` — the fractional game's disconnection penalty —
        without mutating the network, so one shared network can serve every
        ``(source, sink)`` pair.  Absorbed flow is not reported in the
        returned arc-flow map.
        """
        if value < 0:
            raise ValueError(f"flow value must be non-negative, got {value!r}")
        if not self.has_node(source) or not self.has_node(sink):
            missing = source if not self.has_node(source) else sink
            raise InfeasibleFlow(source, sink, value, 0.0)  # pragma: no cover
        self.reset_flow()
        source_idx = self._index_of[source]
        sink_idx = self._index_of[sink]
        n = self.number_of_nodes()
        potential = [0.0] * n
        routed = 0.0
        total_cost = 0.0

        while routed + _EPS < value:
            dist, parent_arc = self._dijkstra(source_idx, potential)
            if dist[sink_idx] == math.inf:
                if overflow_cost is None:
                    raise InfeasibleFlow(source, sink, value, routed)
                total_cost += (value - routed) * overflow_cost
                routed = value
                break
            if overflow_cost is not None:
                # True path cost in original costs: potential[source] is pinned
                # at 0, so dist[sink] + potential[sink] undoes the reduction.
                path_cost = dist[sink_idx] + potential[sink_idx]
                if path_cost >= overflow_cost:
                    total_cost += (value - routed) * overflow_cost
                    routed = value
                    break
            # Update potentials for reachable nodes.
            for idx in range(n):
                if dist[idx] < math.inf:
                    potential[idx] += dist[idx]
            # Find the bottleneck along the augmenting path.
            bottleneck = value - routed
            node = sink_idx
            while node != source_idx:
                arc_id = parent_arc[node]
                bottleneck = min(bottleneck, self._arcs[arc_id].residual)
                node = self._arcs[self._arcs[arc_id].partner].head
            # Apply the augmentation.
            node = sink_idx
            while node != source_idx:
                arc_id = parent_arc[node]
                arc = self._arcs[arc_id]
                arc.flow += bottleneck
                self._arcs[arc.partner].flow -= bottleneck
                total_cost += bottleneck * arc.cost
                node = self._arcs[arc.partner].head
            routed += bottleneck

        flows = {
            arc_id: arc.flow
            for arc_id, arc in enumerate(self._arcs)
            if arc_id % 2 == 0 and arc.flow > _EPS
        }
        return total_cost, flows

    def min_cost_unit_flow(
        self, source: Node, sink: Node, *, overflow_cost: Optional[float] = None
    ) -> float:
        """Return the cost of a minimum-cost unit flow from ``source`` to ``sink``."""
        cost, _ = self.min_cost_flow(source, sink, 1.0, overflow_cost=overflow_cost)
        return cost

    # ------------------------------------------------------------------ #
    # Scratch-edge rollback
    # ------------------------------------------------------------------ #
    def arc_count(self) -> int:
        """Return the number of arc records (a rollback mark for :meth:`truncate`)."""
        return len(self._arcs)

    def truncate(self, count: int) -> None:
        """Remove every arc added after :meth:`arc_count` returned ``count``.

        ``add_edge`` only ever appends — one forward/backward arc pair to
        ``_arcs`` and one id to the tail's and head's adjacency lists — so a
        strict LIFO rollback just pops those appends back off.  This lets a
        cached environment network temporarily host one node's own (variable)
        edges: mark, add, evaluate flows, truncate.  No nodes may have been
        added since the mark, and ``count`` must come from :meth:`arc_count`
        (arc pairs are never split).
        """
        if count < 0 or count % 2 != 0 or count > len(self._arcs):
            raise ValueError(f"invalid truncation mark {count!r}")
        while len(self._arcs) > count:
            backward = self._arcs.pop()
            forward = self._arcs.pop()
            # The backward arc points at the edge's tail; its id and the
            # forward id are the most recent appends on those adjacency lists.
            self._out[backward.head].pop()
            self._out[forward.head].pop()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _dijkstra(
        self, source_idx: int, potential: List[float]
    ) -> Tuple[List[float], List[int]]:
        """Dijkstra on reduced costs over the residual network."""
        n = self.number_of_nodes()
        dist = [math.inf] * n
        parent_arc = [-1] * n
        dist[source_idx] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source_idx)]
        visited = [False] * n
        while heap:
            d, node = heapq.heappop(heap)
            if visited[node]:
                continue
            visited[node] = True
            for arc_id in self._out[node]:
                arc = self._arcs[arc_id]
                if arc.residual <= _EPS:
                    continue
                head = arc.head
                if visited[head]:
                    continue
                reduced = arc.cost + potential[node] - potential[head]
                # Reduced costs can pick up tiny negative rounding noise.
                if reduced < -1e-6:  # pragma: no cover - defensive
                    reduced = 0.0
                candidate = d + max(reduced, 0.0)
                if candidate + _EPS < dist[head]:
                    dist[head] = candidate
                    parent_arc[head] = arc_id
                    heapq.heappush(heap, (candidate, head))
        return dist, parent_arc

def min_cost_unit_flow_cost(
    edges: List[Tuple[Node, Node, float, float]], source: Node, sink: Node
) -> Optional[float]:
    """Convenience wrapper: cost of a min-cost unit flow over an edge list.

    ``edges`` contains ``(tail, head, capacity, cost)`` tuples.  Returns
    ``None`` when a unit of flow cannot be routed at all.
    """
    network = FlowNetwork()
    network.add_node(source)
    network.add_node(sink)
    for tail, head, capacity, cost in edges:
        network.add_edge(tail, head, capacity, cost)
    try:
        return network.min_cost_unit_flow(source, sink)
    except InfeasibleFlow:
        return None
