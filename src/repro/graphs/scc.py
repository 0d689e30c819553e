"""Strongly connected components (Tarjan) and the condensation DAG.

The convergence analysis of best-response walks (Section 4.3 of the paper)
reasons about sink components of the condensation, so the game layer needs a
fast SCC routine.  Tarjan's algorithm is implemented iteratively to avoid
Python's recursion limit on long paths/rings (the Ω(n²) lower-bound instance
is exactly a long ring plus a long path).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Set, Tuple

from .digraph import DiGraph

Node = Hashable


def strongly_connected_components(graph: DiGraph) -> List[Set[Node]]:
    """Return the strongly connected components of ``graph``.

    Components are returned in reverse topological order of the condensation
    (i.e. a component appears before any component that can reach it), which
    is the natural output order of Tarjan's algorithm.
    """
    index_of: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    components: List[Set[Node]] = []
    counter = 0

    for root in graph.nodes():
        if root in index_of:
            continue
        # Iterative Tarjan: each frame is (node, iterator over successors).
        work: List[Tuple[Node, object]] = [(root, iter(list(graph.successors(root))))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for nxt in successors:
                if nxt not in index_of:
                    index_of[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(list(graph.successors(nxt)))))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: Set[Node] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def is_strongly_connected(graph: DiGraph) -> bool:
    """Return ``True`` when the whole graph is one strongly connected component."""
    if graph.number_of_nodes() == 0:
        return True
    return len(strongly_connected_components(graph)) == 1


def condensation(graph: DiGraph) -> Tuple[DiGraph, Dict[Node, int]]:
    """Return ``(dag, membership)`` for the condensation of ``graph``.

    ``dag`` has one integer node per strongly connected component and an edge
    between two components whenever the original graph has an edge between
    their members.  ``membership`` maps each original node to its component id.
    """
    components = strongly_connected_components(graph)
    membership: Dict[Node, int] = {}
    for component_id, component in enumerate(components):
        for node in component:
            membership[node] = component_id
    dag = DiGraph()
    dag.add_nodes_from(range(len(components)))
    for tail, head in graph.edges():
        tail_id = membership[tail]
        head_id = membership[head]
        if tail_id != head_id:
            dag.add_edge(tail_id, head_id)
    return dag, membership
