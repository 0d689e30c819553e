"""Immutable read-view of a :class:`~repro.engine.cost_engine.CostEngine`.

The engine is two things tangled together: a *mutable* cache/repair machine
(row caches, chunk ledger, edit log) and the *read-only state of one profile
version* that every traversal actually consumes — the CSR of the bought
graph, aligned edge lengths, the synced strategies, and the static game
tables.  :class:`EngineSnapshot` extracts the second half into a frozen
value object built once per :meth:`~repro.engine.cost_engine.CostEngine.sync`
(see the "Snapshot ownership and lifetime" contract in
:mod:`repro.engine`):

* ``CostEngine._rebuild_csr`` is the only writer; it constructs a *fresh*
  snapshot per version and never mutates a published one.  The CSR lists and
  array views inside a snapshot are therefore stable for its lifetime even
  while the engine syncs onward.
* Kernels and the sweep layer read through :func:`csr_of` /
  :func:`csr_arrays_of` and the snapshot's fields instead of reaching into
  engine internals, so a reader holding a snapshot is indifferent to who
  owns the caches.
* The static side (link lengths, target rows, weights, licence flags) lives
  in the embedded :class:`~repro.engine.indexed.IndexedGame`, whose rows are
  read-only repo-wide — aliasing them here is free.  The snapshot has no
  read-through properties for it: readers go through ``snapshot.indexed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple


@dataclass(frozen=True, eq=False)
class EngineSnapshot:
    """Everything a traversal or sweep needs to *read*, frozen per version.

    Instances are value objects: the engine publishes a new one on every
    observed profile change and never mutates an old one.  ``version`` is the
    engine's profile version at build time; a reader that cached derived
    state can compare versions instead of re-diffing strategies.

    The CSR fields mirror the engine's traversal state exactly:

    * ``indptr`` / ``indices`` — the bought graph in CSR form (list space);
    * ``edge_lengths`` — CSR-aligned arc lengths, or ``None`` for
      uniform-length games (hop kernels scale by ``unit_length`` instead);
    * ``*_np`` — int64/float64 array mirrors when the numpy backend is
      active (``None`` otherwise), including the exact-int64 length view
      when the integral-lengths licence holds;
    * ``label_strategies`` — the synced profile per dense node id, in label
      space (``None`` before the first sync).

    Static game tables (lengths, targets, weights, penalty, licence flags)
    live in ``indexed``; readers take them from there (``snap.indexed.labels``).
    """

    version: int
    indexed: Any  # IndexedGame (static, read-only tables)
    indptr: List[int]
    indices: List[int]
    edge_lengths: Optional[List[float]] = None
    indptr_np: Any = None
    indices_np: Any = None
    edge_lengths_np: Any = None
    edge_lengths_exact_np: Any = None
    label_strategies: Optional[Tuple[frozenset, ...]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        synced = self.label_strategies is not None
        return (
            f"EngineSnapshot(version={self.version}, n={self.indexed.n}, "
            f"synced={synced})"
        )


def csr_of(snapshot: EngineSnapshot):
    """Return ``(indptr, indices, edge_lengths)`` for the list kernels.

    ``edge_lengths`` is ``None`` for uniform-length games — exactly the
    contract of :mod:`repro.graphs.int_kernels`' hop kernels.
    """
    return snapshot.indptr, snapshot.indices, snapshot.edge_lengths


def csr_arrays_of(snapshot: EngineSnapshot):
    """Return ``(indptr, indices, lengths, exact_lengths)`` array views.

    The array-kernel counterpart of :func:`csr_of`; all four are ``None``
    when the snapshot was built without the numpy backend.
    """
    return (
        snapshot.indptr_np,
        snapshot.indices_np,
        snapshot.edge_lengths_np,
        snapshot.edge_lengths_exact_np,
    )


__all__ = ["EngineSnapshot", "csr_arrays_of", "csr_of"]
