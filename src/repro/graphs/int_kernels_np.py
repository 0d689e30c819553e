"""Vectorised CSR traversal kernels (the numpy backend of the cost engine).

The list kernels in :mod:`repro.graphs.int_kernels` spend their time in
per-edge Python bytecode, which caps equilibrium checks at n in the tens.
This module re-implements the same four traversals as *array sweeps* so the
per-edge work happens inside numpy's C loops:

* :func:`bfs_hops_csr_np` — level-synchronous frontier BFS: each round
  gathers every out-edge of the current frontier in one shot
  (``np.repeat`` over the CSR ``indptr`` slices) and labels the unvisited
  heads with the next hop count;
* :func:`dijkstra_csr_np` — frontier relaxation over non-negative lengths
  (a bucketed label-correcting Dijkstra): each round relaxes all out-edges
  of the nodes whose tentative distance just improved, with
  ``np.minimum.at`` resolving duplicate heads.  Integer lengths (the
  ``int64`` dtype) keep every label in exact int space; float lengths
  converge to the same fixed point as the heap Dijkstra (see below);
* :func:`bfs_hops_csr_multi` / :func:`dijkstra_csr_multi` — the batched
  forms: one traversal computes the rows of many sources under one shared
  mask, amortising the per-round dispatch overhead that otherwise
  dominates on sparse graphs (a uniform deviation probe wants every
  candidate first-hop row of one masked node at once; ``all_costs`` and
  the engine's base rows want unmasked rows).  A giant-batch report
  chunk's masked rows, which span many masked nodes, are not traversed:
  the engine derives them from unmasked base rows with the list
  mask-repair kernels;
* :func:`repair_hops_csr_np` / :func:`repair_dijkstra_csr_np` — not array
  sweeps but adapters: they run the list repair kernels
  (``repair_hops_csr`` / ``repair_dijkstra_csr``) on a ``memoryview`` of a
  cached array row, which the kernels edit in place entry by entry.  A
  repair touches a small region of one row, where the list kernels'
  per-node work beats an array sweep's per-round dispatch (and no
  conversion of the whole row is paid), so the repair algorithm exists
  once.

**Bit-identity.**  Hop counts and integer lengths are computed in exact
``int64`` space, so equality with the list kernels is literal, and the
float conversions (``float(h) * unit``; ``float(int_distance)``) apply the
same single IEEE operations the list path applies.  For float lengths the
frontier relaxation converges to ``dist[v] = min over paths P of the
left-associated float sum along P`` — the same value the binary-heap
Dijkstra produces, because IEEE addition of non-negative doubles is
monotone (``fl(a + w) >= a``), so a node finalised later can never supply a
smaller float label, and every relaxation candidate is itself a
left-associated path sum.  ``tests/test_backend_parity.py`` pins the
traversals and the repair adapters against the list kernels under
hypothesis (masked and unmasked, zero-length edges, disconnected nodes,
randomized edit sequences).

All kernels honour the same ``forbidden`` mask as the list kernels (the
masked node is never entered and reports unreachable), which is what lets
:class:`repro.engine.CostEngine` serve ``d_{G-u}`` rows from one shared
profile snapshot.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence, Tuple

import numpy as np

from .int_kernels import UNREACHED, repair_dijkstra_csr, repair_hops_csr

#: Bitset decoding views uint64 frontier words as bytes; on big-endian hosts
#: the words must be byteswapped first so bit ``s`` lands at unpacked
#: position ``s`` (matching the little-endian shift that set it).
_BIG_ENDIAN = sys.byteorder != "little"

#: Sentinel for unreachable entries of int64 distance rows.  Far above any
#: real distance (lengths are gated below ``2**53``) yet with enough headroom
#: that a stray ``sentinel + length`` could not wrap ``int64`` — though the
#: kernels never relax out of an unreached node in the first place.
INT_UNREACHED = 2**62


def csr_arrays(
    indptr: Sequence[int], indices: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialise list CSR arrays as int64 numpy arrays (one copy)."""
    return (
        np.asarray(indptr, dtype=np.int64),
        np.asarray(indices, dtype=np.int64),
    )


def reverse_csr(
    indptr: np.ndarray, indices: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Return the reverse graph as CSR ``(rev_indptr, rev_tails)`` arrays.

    ``rev_tails[rev_indptr[v]:rev_indptr[v + 1]]`` lists the in-neighbours of
    ``v``.  The dense rounds of :func:`bfs_hops_csr_multi` group each head's
    in-edges with it, which the forward CSR cannot answer.
    """
    rev_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=rev_indptr[1:])
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    order = np.argsort(indices, kind="stable")
    return rev_indptr, tails[order]


def _gather_edges(
    indptr: np.ndarray, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(edge_positions, tails)`` for every out-edge of ``frontier``.

    ``edge_positions`` indexes the CSR ``indices``/``lengths`` arrays;
    ``tails`` repeats each frontier node once per out-edge, aligned with it.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    offsets = np.cumsum(counts) - counts
    positions = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
    return positions, np.repeat(frontier, counts)


def hop_dtype(n: int) -> np.dtype:
    """The dtype of an ``n``-node BFS hop row: int16 when ``n`` fits, else int64.

    The test is on ``n``, not on one traversal's depth: a hop label never
    exceeds ``n - 1``, so the dtype holds every label a row can ever take,
    including those a later :func:`repair_hops_csr_np` writes.
    """
    return np.dtype(np.int16 if n <= np.iinfo(np.int16).max else np.int64)


def bfs_hops_csr_np(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    source: int,
    forbidden: int = -1,
) -> np.ndarray:
    """Level-synchronous BFS: the numpy counterpart of ``bfs_hops_csr``.

    Returns a :func:`hop_dtype` array of hop counts with :data:`~repro
    .graphs.int_kernels.UNREACHED` for unreachable nodes; semantics
    (including the ``forbidden`` mask and the rejected ``forbidden ==
    source`` case) match the list kernel exactly.
    """
    if forbidden == source:
        raise ValueError("the BFS source cannot be the forbidden node")
    hops = np.full(n, UNREACHED, dtype=hop_dtype(n))
    if 0 <= forbidden < n:
        hops[forbidden] = 0  # non-negative: blocks the visit test below
    hops[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        positions, _ = _gather_edges(indptr, frontier)
        heads = indices[positions]
        heads = heads[hops[heads] < 0]
        if heads.size == 0:
            break
        frontier = np.unique(heads)
        hops[frontier] = level
    if 0 <= forbidden < n:
        hops[forbidden] = UNREACHED
    return hops


def dijkstra_csr_np(
    indptr: np.ndarray,
    indices: np.ndarray,
    lengths: np.ndarray,
    n: int,
    source: int,
    forbidden: int = -1,
) -> np.ndarray:
    """Frontier-relaxation Dijkstra: the numpy counterpart of ``dijkstra_csr``.

    ``lengths`` is aligned with ``indices`` and its dtype selects the label
    space: an integer dtype keeps every label an exact int64 (unreachable =
    :data:`INT_UNREACHED`), a float dtype works in IEEE doubles (unreachable
    = ``inf``).  Each round applies every improvement found so far and
    relaxes the out-edges of the improved nodes; rounds continue until no
    label moves, which for non-negative lengths reproduces the heap
    Dijkstra's labels bit for bit (see the module docstring).
    """
    if forbidden == source:
        raise ValueError("the Dijkstra source cannot be the forbidden node")
    integral = lengths.dtype.kind in "iu"
    if integral:
        dist = np.full(n, INT_UNREACHED, dtype=np.int64)
        barrier = -1  # no candidate is below it, so the mask is never entered
    else:
        dist = np.full(n, np.inf, dtype=np.float64)
        barrier = -np.inf
    masked = 0 <= forbidden < n
    if masked:
        dist[forbidden] = barrier
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        positions, tails = _gather_edges(indptr, frontier)
        if positions.size == 0:
            break
        heads = indices[positions]
        candidates = dist[tails] + lengths[positions]
        previous = dist.copy()
        np.minimum.at(dist, heads, candidates)
        frontier = np.flatnonzero(dist < previous)
    if masked:
        dist[forbidden] = INT_UNREACHED if integral else np.inf
    return dist


def bfs_hops_csr_multi(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    sources: Sequence[int],
    forbidden=-1,
) -> np.ndarray:
    """Batched BFS: hop rows for every source at once, as an ``(S, n)`` matrix.

    The matrix has the :func:`hop_dtype` of ``n``, and row ``i`` is exactly
    ``bfs_hops_csr(..., sources[i], forbidden)``.  All sources advance
    level-synchronously over **bitset frontiers**: each node
    carries one bit per source packed into ``ceil(S / 64)`` uint64 words, a
    round ORs the frontier words of every union-frontier tail into its heads
    (one ``np.bitwise_or.at``) and ticks a bit-sliced visit counter from
    which hop labels are assembled once at the end.  Per-round work is
    ``O(frontier edges * S / 64)`` words instead
    of ``O(S * E)`` bools, which is what amortises the per-round dispatch
    overhead that makes single-source array BFS lose on sparse, deep graphs
    — per-node deviation probes (a handful of sources, same mask) and whole
    ``all_costs`` sweeps (``S = n``) both stay traversal-cheap.

    ``forbidden`` is one node masked in every row (``int()`` rejects a
    sequence with ``TypeError``).  Each row's bits evolve exactly as they
    would alone (bits of different sources never interact), so every row is
    bit-identical to the single-source kernel.
    """
    sources = np.asarray(sources, dtype=np.int64)
    num = int(sources.shape[0])
    forbidden = int(forbidden)
    if forbidden >= 0 and bool(np.any(sources == forbidden)):
        raise ValueError("the BFS source cannot be the forbidden node")
    words = (num + 63) // 64
    frontier = np.zeros((n, words), dtype=np.uint64)
    bit_word = np.arange(num, dtype=np.int64) // 64
    bit_mask = np.uint64(1) << (np.arange(num, dtype=np.uint64) % np.uint64(64))
    # bitwise_or.at (not fancy |=) so repeated source nodes still set all bits.
    np.bitwise_or.at(frontier, (sources, bit_word), bit_mask)
    visited = frontier.copy()
    masked = 0 <= forbidden < n
    # Hop labels are never scattered during the sweep.  Instead each round
    # increments a bit-sliced counter over the *visited* words (a carry-save
    # ripple across ceil(log2(rounds+1)) uint64 planes, so the per-round cost
    # is a handful of word-parallel AND/XORs instead of an unpack + nonzero +
    # scatter over every fresh bit).  A bit first visited in round L is
    # counted in rounds L..R, so count = R - L + 1 and L = R + 1 - count;
    # never-visited bits keep count 0.  One unpack per plane at the end
    # replaces the per-round decode that dominated giant-chunk profiles.
    planes: list = []
    rounds = 0
    # Once the frontier covers a large slice of a wide batch, a head-grouped
    # ``bitwise_or.reduceat`` over the reverse CSR beats the
    # frontier-restricted scatter (``bitwise_or.at`` is a buffered
    # per-element loop): inactive tails contribute all-zero words, so the
    # dense sweep computes the same ``reached``.  Narrow batches stay on the
    # sparse scatter — their per-round gather traffic (all E edges * words)
    # would dwarf the scatter they replace.
    rev = None
    dense_threshold = n // 4 if words >= 4 else n + 1
    last_fresh = 0
    while True:
        if last_fresh >= dense_threshold:
            if rev is None:
                rev_indptr, rev_tails = reverse_csr(indptr, indices, n)
                # reduceat only over heads that have in-edges: empty groups
                # would repeat a neighbour's element (and a start == E is out
                # of bounds), but consecutive non-empty starts are strictly
                # increasing and span exactly each head's edge run, so none
                # of reduceat's empty-group quirks apply.
                nonempty = np.flatnonzero(rev_indptr[:-1] < rev_indptr[1:])
                rev_starts = rev_indptr[:-1][nonempty]
                rev = (
                    rev_starts,
                    rev_tails,
                    nonempty if nonempty.shape[0] < n else None,
                )
            grouped = np.bitwise_or.reduceat(frontier[rev[1]], rev[0], axis=0)
            if rev[2] is None:
                reached = grouped
            else:
                reached = np.zeros_like(frontier)
                reached[rev[2]] = grouped
        else:
            active = np.flatnonzero(frontier.any(axis=1))
            positions, tails = _gather_edges(indptr, active)
            if positions.size == 0:
                break
            heads = indices[positions]
            reached = np.zeros_like(frontier)
            np.bitwise_or.at(reached, heads, frontier[tails])
        if masked:
            reached[forbidden] = 0
        fresh = reached & ~visited
        rows = np.flatnonzero(fresh.any(axis=1))
        if rows.size == 0:
            break
        last_fresh = int(rows.size)
        visited[rows] |= fresh[rows]
        frontier = fresh
        rounds += 1
        carry = visited.copy()
        for plane in planes:
            carried = plane & carry
            plane ^= carry
            carry = carried
        if carry.any():
            planes.append(carry)
    out_dtype = hop_dtype(n)
    if not planes:
        hops = np.full((num, n), UNREACHED, dtype=out_dtype)
    else:
        # Assemble levels from the plane counters: unpack each plane's words
        # once to (n, S) bits.  bitorder='little' matches the shift direction
        # used to build bit_mask above once the words are in little-endian
        # byte order (a byteswap on big-endian hosts).  The counter uses the
        # narrowest exact dtype (counts <= rounds, bounded by 2**planes - 1)
        # so the accumulation and the transpose touch as little memory as
        # possible; counts are exact small integers either way, so the final
        # subtraction is bit-identical.
        if len(planes) <= 8:
            acc_dtype = np.uint8
        elif len(planes) <= 15:
            acc_dtype = np.int16
        else:
            acc_dtype = np.int64
        # Transposing the packed bytes (words per node, a ~1% slice of the
        # full bit matrix) lands source-major cheaply, and a shift-and-mask
        # broadcast unpacks each byte row into its 8 source rows in C order
        # — byte s // 8 of a node's words holds sources 8 * (s // 8) ..
        # 8 * (s // 8) + 7, least significant bit first, matching bit_mask
        # above.  (np.unpackbits along axis 0 computes the same thing an
        # order of magnitude slower, and unpacking along axis 1 would force
        # an elementwise transpose of the full-size counter.)
        count = np.zeros((num, n), dtype=acc_dtype)
        shifts = np.arange(8, dtype=np.uint8)[None, :, None]
        for k, plane in enumerate(planes):
            if _BIG_ENDIAN:  # pragma: no cover - exercised on s390x and friends
                plane = plane.byteswap()
            pbytes = np.ascontiguousarray(plane.view(np.uint8).T)
            bits = ((pbytes[:, None, :] >> shifts) & np.uint8(1)).reshape(-1, n)
            bits = bits[:num]
            if k == 0:
                count += bits
            elif k < 8:
                count += bits << np.uint8(k)  # still uint8: k <= 7, bit <= 128
            else:
                count += bits.astype(acc_dtype) << k
        # Convert once, subtract in place, then fill the (typically few)
        # never-visited entries (rounds + 1 <= n fits the hop dtype).
        never = count == 0
        hops = count.astype(out_dtype)
        np.subtract(rounds + 1, hops, out=hops)
        hops[never] = UNREACHED
    # Sources counted in every round (count = rounds → level 1 above), but
    # their true hop label is 0.
    hops[np.arange(num), sources] = 0
    if masked:
        hops[:, forbidden] = UNREACHED
    return hops


def dijkstra_csr_multi(
    indptr: np.ndarray,
    indices: np.ndarray,
    lengths: np.ndarray,
    n: int,
    sources: Sequence[int],
    forbidden: int = -1,
) -> np.ndarray:
    """Batched frontier Dijkstra: one ``(S, n)`` matrix of distance rows.

    Row ``i`` is exactly ``dijkstra_csr_np(..., sources[i], forbidden)`` (and
    therefore exactly the heap kernel's row).  Each round relaxes the
    out-edges of the union frontier for every source at once; relaxing an
    edge for a source that did not improve its tail is a no-op (the candidate
    cannot beat the standing label), so sharing the gather across sources
    never changes any label — only the round count shrinks.

    ``forbidden`` is one node masked in every row (``int()`` rejects a
    sequence with ``TypeError``).
    """
    sources = np.asarray(sources, dtype=np.int64)
    num = int(sources.shape[0])
    forbidden = int(forbidden)
    if forbidden >= 0 and bool(np.any(sources == forbidden)):
        raise ValueError("the Dijkstra source cannot be the forbidden node")
    integral = lengths.dtype.kind in "iu"
    if integral:
        dist = np.full((num, n), INT_UNREACHED, dtype=np.int64)
        barrier = -1
    else:
        dist = np.full((num, n), np.inf, dtype=np.float64)
        barrier = -np.inf
    masked = 0 <= forbidden < n
    if masked:
        dist[:, forbidden] = barrier
    dist[np.arange(num), sources] = 0
    flat = dist.reshape(-1)
    offsets = np.arange(num, dtype=np.int64) * n
    # The frontier is the set of columns (nodes) where any source's label
    # improved last round: relaxing an edge for a source that did not
    # improve its tail is a no-op (the candidate cannot beat the standing
    # label), so per-source frontier masking is unnecessary, and only the
    # head columns of a round need snapshotting to detect improvements —
    # copying the whole (S, n) matrix per round would dominate at S = n.
    columns = np.unique(sources)
    while True:
        positions, tails = _gather_edges(indptr, columns)
        if positions.size == 0:
            break
        heads = indices[positions]
        candidates = dist[:, tails] + lengths[positions]
        head_columns = np.unique(heads)
        if 4 * head_columns.size < n:
            # Narrow round: snapshot only the columns that can change.
            previous = dist[:, head_columns]
            np.minimum.at(flat, (offsets[:, None] + heads).ravel(), candidates.ravel())
            improved = (dist[:, head_columns] < previous).any(axis=0)
            columns = head_columns[improved]
        else:
            # Wide round: the head set approaches n, where one flat copy is
            # cheaper than two fancy-index gathers of almost everything.
            previous = dist.copy()
            np.minimum.at(flat, (offsets[:, None] + heads).ravel(), candidates.ravel())
            columns = np.flatnonzero((dist < previous).any(axis=0))
        if columns.size == 0:
            break
    if masked:
        dist[:, forbidden] = INT_UNREACHED if integral else np.inf
    return dist


def int_to_float_rows(dist: np.ndarray) -> np.ndarray:
    """Convert int64 distances (row or matrix) to ``dijkstra_csr``'s floats.

    ``float(d)`` is exact for every gated distance (``< 2**53``), so each
    entry is bit-identical to the heap kernel's float label on integer
    lengths; :data:`INT_UNREACHED` becomes ``inf``.
    """
    rows = dist.astype(np.float64)
    rows[dist >= INT_UNREACHED] = np.inf
    return rows


def scaled_float_rows(hops: np.ndarray, unit: float) -> np.ndarray:
    """Vectorised ``scaled_float_row`` (row or matrix): hops scaled by ``unit``.

    Each entry is the same single IEEE product ``float(h) * unit`` the list
    helper computes; :data:`~repro.graphs.int_kernels.UNREACHED` becomes
    ``inf``.
    """
    # One fused ufunc: each int hop converts to its exact double (< 2**53)
    # before the multiply, so every entry is the same single IEEE product
    # ``float(h) * unit`` the two-step astype-then-scale spelling computes.
    rows = hops * np.float64(unit)
    rows[hops < 0] = np.inf
    return rows


# --------------------------------------------------------------------- #
# Repair adapters
# --------------------------------------------------------------------- #
def repair_hops_csr_np(
    indptr: Sequence[int],
    indices: Sequence[int],
    hops: np.ndarray,
    source: int,
    edits: Sequence[Tuple[int, Iterable[int], Iterable[int]]],
    rev_indptr: Sequence[int],
    rev_tails: Sequence[int],
    forbidden: int = -1,
) -> None:
    """Repair an array hop row in place with the list kernel ``repair_hops_csr``.

    The arguments are the list kernel's (list CSR and list reverse CSR);
    only ``hops`` is the engine's cached array, which the kernel edits
    through a ``memoryview``: entry by entry, keeping its dtype and its
    identity (the row may be a view into a giant-batch chunk).
    """
    repair_hops_csr(
        indptr, indices, memoryview(hops), source, edits, rev_indptr, rev_tails, forbidden
    )


def repair_dijkstra_csr_np(
    indptr: Sequence[int],
    indices: Sequence[int],
    lengths: Sequence[float],
    dist: np.ndarray,
    source: int,
    edits: Sequence[Tuple[int, Iterable[int], Iterable[int]]],
    rev_indptr: Sequence[int],
    rev_tails: Sequence[int],
    length_rows: Sequence[Sequence[float]],
    forbidden: int = -1,
) -> None:
    """Repair a float64 distance row in place with ``repair_dijkstra_csr``.

    The arguments are the list kernel's; ``dist`` is edited through a
    ``memoryview`` like :func:`repair_hops_csr_np` edits its row.
    """
    repair_dijkstra_csr(
        indptr, indices, lengths, memoryview(dist), source, edits,
        rev_indptr, rev_tails, length_rows, forbidden,
    )


__all__ = [
    "INT_UNREACHED",
    "bfs_hops_csr_multi",
    "bfs_hops_csr_np",
    "csr_arrays",
    "dijkstra_csr_multi",
    "dijkstra_csr_np",
    "hop_dtype",
    "int_to_float_rows",
    "repair_dijkstra_csr_np",
    "repair_hops_csr_np",
    "reverse_csr",
    "scaled_float_rows",
]
