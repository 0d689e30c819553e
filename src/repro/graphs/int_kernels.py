"""Flat-array shortest-path kernels over int-indexed CSR adjacency.

The dict-based BFS/Dijkstra in :mod:`repro.graphs.bfs` and
:mod:`repro.graphs.dijkstra` operate on arbitrary hashable node labels and
per-edge attribute dictionaries, which is convenient but slow in the game
engine's hot path (one SSSP per candidate first hop per probed node).  The
kernels here assume nodes have already been mapped to dense ints ``0..n-1``
and the graph packed into CSR arrays, so the inner loops touch nothing but
flat lists:

* ``build_csr`` packs per-node successor lists into ``(indptr, indices)``,
  and ``reverse_csr`` turns a CSR into its reverse ``(rev_indptr, rev_tails)``;
* ``bfs_hops_csr`` returns hop counts as a dense list (``-1`` = unreachable);
* ``dijkstra_csr`` returns weighted distances (``inf`` = unreachable) using a
  heap of plain ``(dist, node)`` pairs — ints always compare, so no tiebreak
  counter is needed — and edge lengths aligned with ``indices`` instead of
  per-edge attribute-dict lookups;
* ``bfs_hops_csr_multi`` / ``dijkstra_csr_multi`` — the batched reference
  forms: one row per source, each with its *own* ``forbidden`` mask (row
  ``i`` computes ``d_{G-u_i}`` from ``sources[i]``), implemented as plain
  loops over the single-source kernels so the vectorised batched kernels in
  :mod:`repro.graphs.int_kernels_np` have a bit-identical reference;
* ``repair_hops_csr`` / ``repair_dijkstra_csr`` *repair* a cached distance
  row in place after some nodes' out-arcs changed, by bounded re-relaxation
  of the affected region instead of a fresh traversal (dynamic SSSP in the
  Ramalingam–Reps style: find the region whose old distance lost support,
  reset it, then run a Dijkstra continuation seeded from the region's intact
  boundary and from the added arcs).  Repaired rows are bit-identical to
  recomputing from scratch; ``tests/test_engine_parity.py`` pins it;
* ``mask_repair_hops`` / ``mask_repair_dijkstra`` *derive* a masked row
  ``d_{G-u}(a, ·)`` from the unmasked ``d_G(a, ·)``: the same reset-and-
  re-settle, for the one edit "``u`` is deleted", applied in place to a
  copy of the unmasked row.

Every row argument of the repair and mask-repair kernels is read and
written one entry at a time, so it may be a list or a ``memoryview`` of a
numpy array row (format ``d`` for float64, ``h`` / ``l`` for int16 / int64
hop rows): entries read back as Python ``float`` / ``int``, so the work per
row stays proportional to the region it re-settles.

Both traversals accept a ``forbidden`` node that is never entered, which lets
:class:`repro.engine.CostEngine` compute ``d_{G-u}`` distances by masking
``u`` out of the *shared* profile snapshot instead of rebuilding a per-oracle
environment graph.  The repair kernels honour the same mask, so masked
``d_{G-u}`` rows repair exactly like unmasked ones.  On the list kernels the
engine traverses only unmasked rows at n >= 16 and derives every masked row
with the mask-repair kernels.

Edge lengths are assumed non-negative; game construction validates this
(:meth:`repro.core.game.BBCGame._validate_tables`), so the kernels skip the
check to keep the loop tight.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Iterable, List, MutableSequence, Sequence, Tuple

#: Sentinel for unreachable nodes in :func:`bfs_hops_csr` results.
UNREACHED = -1


def build_csr(successor_rows: Sequence[Sequence[int]]) -> Tuple[List[int], List[int]]:
    """Pack per-node successor lists into CSR ``(indptr, indices)`` arrays.

    ``successor_rows[u]`` lists the int successors of node ``u``; the edges of
    ``u`` occupy ``indices[indptr[u]:indptr[u + 1]]``.
    """
    indptr = [0]
    indices: List[int] = []
    for successors in successor_rows:
        indices.extend(successors)
        indptr.append(len(indices))
    return indptr, indices


def reverse_csr(
    indptr: Sequence[int], indices: Sequence[int], n: int
) -> Tuple[List[int], List[int]]:
    """Return the reverse graph as CSR ``(rev_indptr, rev_tails)`` lists.

    ``rev_tails[rev_indptr[v]:rev_indptr[v + 1]]`` lists the in-neighbours of
    ``v``, which the repair kernels seed orphaned nodes from, on either
    backend.  The list twin of :func:`repro.graphs.int_kernels_np.reverse_csr`.
    """
    in_rows: List[List[int]] = [[] for _ in range(n)]
    for tail in range(n):
        for head in indices[indptr[tail] : indptr[tail + 1]]:
            in_rows[head].append(tail)
    return build_csr(in_rows)


def bfs_hops_csr(
    indptr: Sequence[int],
    indices: Sequence[int],
    n: int,
    source: int,
    forbidden: int = -1,
) -> List[int]:
    """Return hop counts from ``source`` as a dense list of length ``n``.

    Unreachable nodes hold :data:`UNREACHED`.  When ``forbidden`` is a valid
    node id it is never entered, yielding distances in the graph with that
    node deleted; ``forbidden == source`` is contradictory and rejected.
    """
    if forbidden == source:
        raise ValueError("the BFS source cannot be the forbidden node")
    dist = [UNREACHED] * n
    if 0 <= forbidden < n:
        dist[forbidden] = n + 1  # non-negative: blocks the visit test below
    dist[source] = 0
    queue: deque = deque([source])
    while queue:
        node = queue.popleft()
        next_hop = dist[node] + 1
        for head in indices[indptr[node] : indptr[node + 1]]:
            if dist[head] < 0:
                dist[head] = next_hop
                queue.append(head)
    if 0 <= forbidden < n:
        dist[forbidden] = UNREACHED
    return dist


def per_source_forbidden(sources, forbidden) -> List[int]:
    """Normalise the batched kernels' ``forbidden`` argument to one mask per row.

    ``forbidden`` is either a single int shared by every source (the original
    multi-kernel contract; ``-1`` = no mask) or a sequence aligned with
    ``sources`` so row ``i`` computes ``d_{G-u_i}`` from ``sources[i]``.
    ``forbidden[i] == sources[i]`` is contradictory and rejected, exactly like
    the single-source kernels reject it.
    """
    try:
        masks = [int(f) for f in forbidden]
    except TypeError:
        return [int(forbidden)] * len(sources)
    if len(masks) != len(sources):
        raise ValueError(
            f"per-row forbidden masks ({len(masks)}) do not align with "
            f"sources ({len(sources)})"
        )
    return masks


def bfs_hops_csr_multi(
    indptr: Sequence[int],
    indices: Sequence[int],
    n: int,
    sources: Sequence[int],
    forbidden=-1,
) -> List[List[int]]:
    """Batched reference BFS: one :func:`bfs_hops_csr` row per source.

    ``forbidden`` is a shared int or a per-row sequence (row ``i`` masks
    ``forbidden[i]``); see :func:`per_source_forbidden`.  This is the
    bit-identical reference for the vectorised
    :func:`repro.graphs.int_kernels_np.bfs_hops_csr_multi`, and what every
    batched fill of the cost engine (a probe's rows, a giant-batch report
    chunk) runs on the python backend — a plain loop, so batching changes
    *when* rows are computed, never their values or their cost per row.
    """
    masks = per_source_forbidden(sources, forbidden)
    return [
        bfs_hops_csr(indptr, indices, n, source, mask)
        for source, mask in zip(sources, masks)
    ]


def dijkstra_csr_multi(
    indptr: Sequence[int],
    indices: Sequence[int],
    lengths: Sequence[float],
    n: int,
    sources: Sequence[int],
    forbidden=-1,
) -> List[List[float]]:
    """Batched reference Dijkstra: one :func:`dijkstra_csr` row per source.

    The weighted counterpart of :func:`bfs_hops_csr_multi`, with the same
    shared-or-per-row ``forbidden`` contract.
    """
    masks = per_source_forbidden(sources, forbidden)
    return [
        dijkstra_csr(indptr, indices, lengths, n, source, mask)
        for source, mask in zip(sources, masks)
    ]


def dijkstra_csr(
    indptr: Sequence[int],
    indices: Sequence[int],
    lengths: Sequence[float],
    n: int,
    source: int,
    forbidden: int = -1,
) -> List[float]:
    """Return weighted distances from ``source`` as a dense list of length ``n``.

    ``lengths`` is aligned with ``indices`` (edge ``indices[i]`` has length
    ``lengths[i]``).  Unreachable nodes hold ``inf``; ``forbidden`` (if any)
    is never entered and reports ``inf``; ``forbidden == source`` is
    contradictory and rejected.
    """
    if forbidden == source:
        raise ValueError("the Dijkstra source cannot be the forbidden node")
    dist = [math.inf] * n
    done = [False] * n
    if 0 <= forbidden < n:
        done[forbidden] = True
    heap: List[Tuple[float, int]] = [(0, source)]
    while heap:
        d, node = heappop(heap)
        if done[node]:
            continue
        done[node] = True
        dist[node] = d
        for offset in range(indptr[node], indptr[node + 1]):
            head = indices[offset]
            if not done[head]:
                heappush(heap, (d + lengths[offset], head))
    return dist


def _old_out(indptr, indices, edit_map, v):
    """``v``'s out-row in the *old* graph: the new CSR row with ``v``'s edit
    (if any) undone — its added arcs dropped, its removed arcs appended."""
    edit = edit_map.get(v)
    if edit is None:
        return indices[indptr[v] : indptr[v + 1]]
    removed, added = edit
    old_out = [y for y in indices[indptr[v] : indptr[v + 1]] if y not in added]
    old_out.extend(removed)
    return old_out


def _phase1_affected(
    dist,
    tight_seeds,
    edit_map,
    indptr,
    indices,
    length_rows,
    source: int,
    forbidden: int,
) -> set:
    """Return the (over-approximate) set of nodes whose old distance lost support.

    Starting from the heads of removed *tight* arcs, follow old-graph tight
    edges forward: a tight edge ``(v, y)`` (``dist[v] + l(v, y) == dist[y]``,
    with ``l(v, y) = length_rows[v][y]``)
    means ``y``'s old distance may have been supported through ``v``.  Nodes
    with alternative support get swept in too — that is safe, merely wasteful,
    because phase 2 recomputes every marked node exactly.  The ``source``
    (distance 0 by definition, not by in-edges) and ``forbidden`` (never
    entered) can never lose support and are excluded.

    Old-graph out-edges of an edited node are reconstructed by
    :func:`_old_out`.  Hop rows use the exact level test of
    :func:`_lost_hops` instead.
    """
    affected: set = set()
    stack = list(tight_seeds)
    while stack:
        v = stack.pop()
        if v in affected:
            continue
        affected.add(v)
        dv = dist[v]
        v_lengths = length_rows[v]
        for y in _old_out(indptr, indices, edit_map, v):
            if y == source or y == forbidden or y in affected:
                continue
            if dist[y] == dv + v_lengths[y]:
                stack.append(y)
    return affected


def _lost_hops(hops, seeds, edit_map, indptr, indices, rev_indptr, rev_tails) -> List[int]:
    """Mark, in level order, every hop-row node that lost all support; return them.

    ``seeds`` are the nodes that lost a tight in-arc.  A node at old level
    ``L`` keeps its level iff some in-neighbour in the *new* graph (the
    reverse CSR) still holds level ``L - 1``; otherwise it is lost, set to
    :data:`UNREACHED` at once (so the test reads the row alone), and its
    old-graph tight successors become candidates one level down.  Levels
    are settled in increasing order, so every loss one level up is known
    before a node is tested.  The masked node (and any node already
    unreached) reads :data:`UNREACHED` and never counts as support.  Exact
    for hop rows, where every arc has length 1; weighted rows use the
    over-approximation of :func:`_phase1_affected`.
    """
    pending: dict = {}
    for y in seeds:
        pending.setdefault(hops[y], []).append(y)
    lost: List[int] = []
    while pending:
        level = min(pending)
        up, below = level - 1, level + 1
        for y in pending.pop(level):
            if hops[y] != level:
                continue  # already lost through another seed
            for p in rev_tails[rev_indptr[y] : rev_indptr[y + 1]]:
                if hops[p] == up:
                    break
            else:
                hops[y] = UNREACHED
                lost.append(y)
                for z in _old_out(indptr, indices, edit_map, y):
                    if hops[z] == below:
                        pending.setdefault(below, []).append(z)
    return lost


def _resettle_hops(hops, lost, heap, indptr, indices, rev_indptr, rev_tails, forbidden) -> None:
    """Seed each ``lost`` node from its intact in-boundary, then settle.

    ``heap`` carries any further ``(hops, node)`` seeds.  The continuation
    never enters ``forbidden``; ``forbidden`` and lost nodes read
    :data:`UNREACHED`, so they never seed a boundary.
    """
    for y in lost:
        best = -1
        for p in rev_tails[rev_indptr[y] : rev_indptr[y + 1]]:
            hp = hops[p]
            if hp >= 0 and (best < 0 or hp < best):
                best = hp
        if best >= 0:
            heap.append((best + 1, y))
    heapify(heap)
    while heap:
        d, v = heappop(heap)
        hv = hops[v]
        if hv >= 0 and d >= hv:
            continue
        hops[v] = d
        nd = d + 1
        for y in indices[indptr[v] : indptr[v + 1]]:
            if y == forbidden:
                continue
            hy = hops[y]
            if hy < 0 or nd < hy:
                heappush(heap, (nd, y))


def _resettle_dist(
    dist, affected, heap, indptr, indices, lengths, rev_indptr, rev_tails,
    length_rows, forbidden,
) -> None:
    """The weighted twin of :func:`_resettle_hops`: ``affected`` nodes (and
    ``forbidden``) already read ``inf``; ``lengths`` is aligned with
    ``indices`` and ``length_rows[p][v]`` prices the boundary in-arcs."""
    inf = math.inf
    for v in affected:
        best = inf
        for p in rev_tails[rev_indptr[v] : rev_indptr[v + 1]]:
            dp = dist[p]
            if dp < inf:
                cand = dp + length_rows[p][v]
                if cand < best:
                    best = cand
        if best < inf:
            heap.append((best, v))
    heapify(heap)
    while heap:
        d, v = heappop(heap)
        if d >= dist[v]:
            continue
        dist[v] = d
        for offset in range(indptr[v], indptr[v + 1]):
            y = indices[offset]
            if y == forbidden:
                continue
            cand = d + lengths[offset]
            if cand < dist[y]:
                heappush(heap, (cand, y))


def repair_hops_csr(
    indptr: Sequence[int],
    indices: Sequence[int],
    hops: MutableSequence[int],
    source: int,
    edits: Sequence[Tuple[int, Iterable[int], Iterable[int]]],
    rev_indptr: Sequence[int],
    rev_tails: Sequence[int],
    forbidden: int = -1,
) -> None:
    """Repair a BFS hop row in place after the arcs in ``edits`` changed.

    ``hops`` must be a valid hop row from ``source`` (:data:`UNREACHED` for
    unreachable, ``forbidden`` masked) for the *old* graph; ``indptr`` /
    ``indices`` describe the **new** graph.  Each edit is ``(mover,
    removed_heads, added_heads)``: the out-arcs ``mover`` lost and gained
    between the two graphs.  ``rev_indptr`` / ``rev_tails`` are the new
    graph's reverse CSR (:func:`reverse_csr`).

    Only the nodes that lost all support (:func:`_lost_hops`) are reset.
    The repaired row is exactly what :func:`bfs_hops_csr` would return on the
    new graph — hop counts are ints, so equality is literal.
    """
    edit_map = {}
    tight_seeds = []
    for mover, removed, added in edits:
        if mover == forbidden:
            continue  # the masked graph never contained this node's arcs
        edit_map[mover] = (frozenset(removed), frozenset(added))
        dm = hops[mover]
        if dm < 0:
            continue  # unreachable mover: its arcs support nothing
        for a in removed:
            if a != source and a != forbidden and hops[a] == dm + 1:
                tight_seeds.append(a)
    if not edit_map:
        return
    lost = _lost_hops(
        hops, tight_seeds, edit_map, indptr, indices, rev_indptr, rev_tails
    )
    # Added arcs from still-reachable movers may shorten distances; movers
    # that are themselves lost relax their new arcs when they pop.
    heap: List[Tuple[int, int]] = []
    for mover, (_removed, added) in edit_map.items():
        dm = hops[mover]
        if dm < 0:
            continue
        cand = dm + 1
        for a in added:
            if a == forbidden:
                continue
            ha = hops[a]
            if ha < 0 or cand < ha:
                heap.append((cand, a))
    _resettle_hops(hops, lost, heap, indptr, indices, rev_indptr, rev_tails, forbidden)


def repair_dijkstra_csr(
    indptr: Sequence[int],
    indices: Sequence[int],
    lengths: Sequence[float],
    dist: MutableSequence[float],
    source: int,
    edits: Sequence[Tuple[int, Iterable[int], Iterable[int]]],
    rev_indptr: Sequence[int],
    rev_tails: Sequence[int],
    length_rows: Sequence[Sequence[float]],
    forbidden: int = -1,
) -> None:
    """Repair a weighted distance row in place after the arcs in ``edits`` changed.

    The weighted counterpart of :func:`repair_hops_csr`: ``dist`` is a valid
    :func:`dijkstra_csr` row for the old graph, ``lengths`` is aligned with
    the new ``indices``, and ``length_rows[p][v]`` gives the (strategy-
    independent) length of arc ``(p, v)`` for boundary in-edges and for the
    reconstructed old out-rows of edited nodes.

    Repaired values are bit-identical to a fresh run: every label is a
    left-associated float sum along one path — the same form Dijkstra
    produces — and the tight tests use exact float equality, so the affected
    region found here covers exactly the entries whose float value could
    differ.
    """
    inf = math.inf
    edit_map = {}
    tight_seeds = []
    for mover, removed, added in edits:
        if mover == forbidden:
            continue
        edit_map[mover] = (frozenset(removed), frozenset(added))
        dm = dist[mover]
        if dm == inf:
            continue
        mover_lengths = length_rows[mover]
        for a in removed:
            if a != source and a != forbidden and dist[a] == dm + mover_lengths[a]:
                tight_seeds.append(a)
    if not edit_map:
        return

    affected = _phase1_affected(
        dist, tight_seeds, edit_map, indptr, indices, length_rows, source, forbidden
    )
    for v in affected:
        dist[v] = inf
    heap: List[Tuple[float, int]] = []
    for mover, (_removed, added) in edit_map.items():
        dm = dist[mover]
        if dm == inf:
            continue
        mover_lengths = length_rows[mover]
        for a in added:
            if a == forbidden or a in affected:
                continue
            cand = dm + mover_lengths[a]
            if cand < dist[a]:
                heap.append((cand, a))
    _resettle_dist(
        dist, affected, heap, indptr, indices, lengths, rev_indptr, rev_tails,
        length_rows, forbidden,
    )


def mask_repair_hops(
    indptr: Sequence[int],
    indices: Sequence[int],
    hops: MutableSequence[int],
    source: int,
    u: int,
    rev_indptr: Sequence[int],
    rev_tails: Sequence[int],
) -> None:
    """Turn the unmasked hop row ``hops`` into ``d_{G-u}(source, ·)``, in place.

    On entry ``hops`` holds (a copy of) :func:`bfs_hops_csr`'s row from
    ``source`` on the graph ``indptr`` / ``indices`` (reverse CSR
    ``rev_indptr`` / ``rev_tails``); on return it equals
    ``bfs_hops_csr(indptr, indices, n, source, forbidden=u)``.

    Deleting ``u`` can only lengthen distances, and only of the nodes whose
    every shortest path runs through ``u``.  Those are found in level order
    below ``u``: a node at level ``L`` is lost iff each of its in-neighbours
    at level ``L - 1`` is ``u`` or lost.  Lost nodes are reset, seeded from
    their intact in-boundary, and re-settled by a continuation that never
    enters ``u``.
    """
    if u == source:
        raise ValueError("the BFS source cannot be the forbidden node")
    level = hops[u]
    if level < 0:
        return  # u is unreachable: deleting it changes nothing
    hops[u] = UNREACHED
    seeds = [y for y in indices[indptr[u] : indptr[u + 1]] if hops[y] == level + 1]
    lost = _lost_hops(hops, seeds, {}, indptr, indices, rev_indptr, rev_tails)
    if lost:
        _resettle_hops(hops, lost, [], indptr, indices, rev_indptr, rev_tails, u)


def mask_repair_dijkstra(
    indptr: Sequence[int],
    indices: Sequence[int],
    lengths: Sequence[float],
    dist: MutableSequence[float],
    source: int,
    u: int,
    rev_indptr: Sequence[int],
    rev_tails: Sequence[int],
    length_rows: Sequence[Sequence[float]],
) -> None:
    """Turn the unmasked distance row ``dist`` into ``d_{G-u}(source, ·)``, in place.

    The weighted twin of :func:`mask_repair_hops`, with
    :func:`repair_dijkstra_csr`'s argument conventions: ``dist`` holds (a
    copy of) the unmasked :func:`dijkstra_csr` row on entry and equals
    ``dijkstra_csr(..., forbidden=u)`` bit for bit on return.  The level
    test does not hold with zero-length arcs (a node can be supported by a
    same-distance neighbour that is itself lost), so the region reset here
    is the safe over-approximation: every node reachable from ``u`` along
    tight arcs (:func:`_phase1_affected`).
    """
    if u == source:
        raise ValueError("the Dijkstra source cannot be the forbidden node")
    inf = math.inf
    du = dist[u]
    if du == inf:
        return
    dist[u] = inf
    u_lengths = length_rows[u]
    seeds = [
        y for y in indices[indptr[u] : indptr[u + 1]]
        if y != source and dist[y] == du + u_lengths[y]
    ]
    if seeds:
        affected = _phase1_affected(
            dist, seeds, {}, indptr, indices, length_rows, source, u
        )
        for v in affected:
            dist[v] = inf
        _resettle_dist(
            dist, affected, [], indptr, indices, lengths, rev_indptr, rev_tails,
            length_rows, u,
        )


def scaled_float_row(hops: Sequence[int], unit: float) -> List[float]:
    """Convert a BFS hop row into floats scaled by ``unit`` (``inf`` = unreachable).

    The scaling mirrors how the dict-based engine converts hop counts into
    lengths (``float(hops) * unit``) so results stay bit-identical.
    """
    return [float(h) * unit if h >= 0 else math.inf for h in hops]
