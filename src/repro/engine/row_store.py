"""Chunk-granular, byte-accounted LRU ledger for the engine's row cache.

The :class:`~repro.engine.cost_engine.CostEngine` caches one ``d_{G-u}(a,
·)`` row per ``(u, a)``, keyed by the masked node ``u``: the exact BFS hop
row on uniform games (``2 n`` bytes as an int16 array, ``8 n`` as a list),
the float distance row on weighted games (``8 n`` bytes).  PR 5 bounded
that cache by *row count*, which at n = 16k is the wrong unit: the same cap
that is generous at n = 256 silently admits gigabytes at n = 16384.

``ChunkLedger`` replaces the count with bytes and groups nodes into
*chunks* — the unit of both giant-batch computation and LRU eviction,
mirroring the vertex-range work partitioning of the flat-CSR idiom the
numpy backend is built around.  Rows that were filled by one giant batched
traversal live and die together: they were materialised as views into one
contiguous matrix, so evicting the whole chunk actually releases the
backing allocation, whereas evicting a single member row would keep the
full matrix alive through the surviving views.

The ledger tracks *accounting* only (which node sits in which chunk and
how many payload bytes it owns); the engine keeps the rows themselves.
Eviction is node-granular from the engine's point of view — a victim node
loses all its rows at once, and they share one version stamp — which is
what keeps eviction repair-compatible: an evicted node re-enters only by
recomputation, never by patching a partial set.  Rows derived from a cached
row while scoring (through rows, penalty-substituted slices, combination
cost vectors) belong to the scorer that built them and are never charged
here.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set

__all__ = ["ChunkLedger"]


class ChunkLedger:
    """Byte accounting for cached rows, with LRU ordering over node chunks.

    Every tracked node belongs to exactly one chunk.  Nodes enter as
    singleton chunks (:meth:`add`) and can later be coalesced into a shared
    chunk by a giant-batch fill (:meth:`group`).  ``bytes`` is the ledger's
    running total of payload bytes across all tracked nodes.
    """

    __slots__ = ("bytes", "_chunks", "_node_chunk", "_node_bytes", "_next_id")

    def __init__(self) -> None:
        self.bytes = 0
        # chunk id -> member nodes, in least-recently-used-first order.
        self._chunks: "OrderedDict[int, Set[int]]" = OrderedDict()
        self._node_chunk: Dict[int, int] = {}
        self._node_bytes: Dict[int, int] = {}
        self._next_id = 0

    def __contains__(self, u: int) -> bool:
        return u in self._node_chunk

    def __len__(self) -> int:
        return len(self._node_chunk)

    def add(self, u: int, nbytes: int) -> None:
        """Charge ``nbytes`` to node ``u``, tracking it if new.

        A node not yet in the ledger is placed in a fresh singleton chunk at
        the most-recently-used end; a tracked node keeps its chunk (which is
        touched) and simply accrues the extra bytes.
        """
        if nbytes <= 0 and u in self._node_chunk:
            self.touch(u)
            return
        chunk = self._node_chunk.get(u)
        if chunk is None:
            chunk = self._next_id
            self._next_id += 1
            self._chunks[chunk] = {u}
            self._node_chunk[u] = chunk
            self._node_bytes[u] = 0
        else:
            self._chunks.move_to_end(chunk)
        self._node_bytes[u] += nbytes
        self.bytes += nbytes

    def group(self, nodes: Iterable[int]) -> None:
        """Coalesce ``nodes`` into one fresh chunk at the MRU end.

        Nodes keep their byte charges; untracked nodes are skipped (they own
        no bytes yet and will be added when their rows are charged).  Chunks
        that lose all members disappear.
        """
        members = [u for u in nodes if u in self._node_chunk]
        if not members:
            return
        chunk = self._next_id
        self._next_id += 1
        for u in members:
            old = self._node_chunk[u]
            old_members = self._chunks[old]
            old_members.discard(u)
            if not old_members:
                del self._chunks[old]
            self._node_chunk[u] = chunk
        self._chunks[chunk] = set(members)

    def touch(self, u: int) -> None:
        """Mark ``u``'s chunk as most recently used."""
        chunk = self._node_chunk.get(u)
        if chunk is not None:
            self._chunks.move_to_end(chunk)

    def remove(self, u: int) -> int:
        """Stop tracking ``u``; returns the bytes freed."""
        chunk = self._node_chunk.pop(u, None)
        if chunk is None:
            return 0
        members = self._chunks[chunk]
        members.discard(u)
        if not members:
            del self._chunks[chunk]
        freed = self._node_bytes.pop(u, 0)
        self.bytes -= freed
        return freed

    def lru_nodes(self, exempt: Optional[Set[int]] = None) -> Optional[List[int]]:
        """Members of the least-recently-used chunk, skipping exempt chunks.

        A chunk containing any node in ``exempt`` is skipped (it is the
        caller's in-flight working set).  Returns ``None`` when every chunk
        is exempt or the ledger is empty.
        """
        for members in self._chunks.values():
            if exempt and not exempt.isdisjoint(members):
                continue
            return list(members)
        return None

    def clear(self) -> None:
        self.bytes = 0
        self._chunks.clear()
        self._node_chunk.clear()
        self._node_bytes.clear()
