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

The second job of this module is moving snapshots *between processes*:
:func:`pack_payload` / :func:`unpack_payload` serialise an arbitrary
picklable object plus named numpy arrays into one contiguous byte layout
(8-byte big-endian header length, pickled header, 64-byte-aligned raw array
blocks) that drops straight into a ``multiprocessing.shared_memory`` buffer.
On the full dependency leg the arrays come back as zero-copy read-only numpy
views over the shared segment; the minimal leg packs no arrays and rides the
pickled header alone.  :func:`export_tables` / :func:`restore_tables` apply
that machinery to an :class:`IndexedGame`'s static tables so pool workers
adopt the parent's probed rows instead of re-probing ``n^2`` node pairs
(uniform games ship a compact marker — their tables rebuild in ``O(n)``).

Float safety: every float crossing the byte boundary travels as an IEEE-754
float64 (numpy ``tobytes``/``frombuffer`` or pickle), both of which are
bit-exact round trips — adopted tables are *identical* to the parent's, so
sharded results can be compared bitwise against serial references.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

try:  # Optional array backend; the pickled-header path never needs it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the minimal CI leg
    _np = None

#: Byte alignment of raw array blocks inside a packed payload; generous
#: enough for any numpy dtype and for cache-line-friendly worker reads.
PAYLOAD_ALIGN = 64

_HEADER_LEN = struct.Struct(">Q")


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


# ---------------------------------------------------------------------- #
# Byte packing: one contiguous layout for shared segments and inline bytes
# ---------------------------------------------------------------------- #
def _aligned(offset: int) -> int:
    return offset + (-offset) % PAYLOAD_ALIGN


def pack_payload(obj: Any, arrays: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialise ``obj`` plus named numpy ``arrays`` into one byte string.

    Layout: ``[u64 header length][pickled header][pad][array blocks]`` with
    every array block aligned to :data:`PAYLOAD_ALIGN` bytes.  The header
    records each array's dtype, shape, and offset *relative to the aligned
    region start*, so :func:`unpack_payload` can rebuild zero-copy views
    over any buffer holding these bytes (a ``shared_memory`` segment, an
    mmap, or the returned string itself).  ``arrays`` requires numpy; pass
    none on the minimal leg and carry lists inside ``obj`` instead.
    """
    items: List[Tuple[str, str, Tuple[int, ...], int, int]] = []
    blocks: List[bytes] = []
    offset = 0
    for name, array in sorted((arrays or {}).items()):
        if _np is None:
            raise RuntimeError("pack_payload(arrays=...) requires numpy")
        data = _np.ascontiguousarray(array).tobytes()
        offset = _aligned(offset)
        items.append((name, str(array.dtype), tuple(array.shape), offset, len(data)))
        blocks.append(data)
        offset += len(data)
    header = pickle.dumps(
        {"obj": obj, "arrays": items}, protocol=pickle.HIGHEST_PROTOCOL
    )
    out = bytearray(_HEADER_LEN.pack(len(header)))
    out += header
    out += b"\x00" * (_aligned(len(out)) - len(out))
    for data in blocks:
        out += b"\x00" * (_aligned(len(out)) - len(out))
        out += data
    return bytes(out)


def unpack_payload(buffer) -> Tuple[Any, Dict[str, Any]]:
    """Decode :func:`pack_payload` bytes from any buffer-protocol object.

    Returns ``(obj, arrays)`` where each array is a *read-only* numpy view
    over ``buffer`` — zero copies, so the caller must keep the underlying
    segment open for as long as the views live (the attach cache in
    :mod:`repro.experiments.parallel` does exactly that).  Raises
    ``RuntimeError`` if arrays are present but numpy is not importable;
    the fork-based pool guarantees workers match their parent, and the
    minimal leg never packs arrays in the first place.
    """
    view = memoryview(buffer)
    (header_len,) = _HEADER_LEN.unpack_from(view, 0)
    header = pickle.loads(bytes(view[_HEADER_LEN.size : _HEADER_LEN.size + header_len]))
    base = _aligned(_HEADER_LEN.size + header_len)
    arrays: Dict[str, Any] = {}
    for name, dtype, shape, offset, nbytes in header["arrays"]:
        if _np is None:
            raise RuntimeError(
                "packed payload carries numpy arrays but numpy is unavailable"
            )
        count = 1
        for dim in shape:
            count *= dim
        array = _np.frombuffer(
            view, dtype=_np.dtype(dtype), count=count, offset=base + offset
        ).reshape(shape)
        array.flags.writeable = False
        arrays[name] = array
    return header["obj"], arrays


# ---------------------------------------------------------------------- #
# Static-table export: pool workers adopt instead of re-probing n^2 pairs
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SnapshotTables:
    """Picklable static tables of an :class:`IndexedGame`.

    ``compact`` marks uniform constant-parameter games whose tables rebuild
    in ``O(n)`` — those ship no rows at all.  For general games the rows
    either ride the pickled header (``length_rows`` et al. populated) or, on
    the numpy path, ride shared-segment arrays referenced by
    :data:`TABLE_ARRAY_KEYS` and are rebuilt at :func:`restore_tables` time.
    """

    labels: Tuple[Any, ...]
    compact: bool
    integral_lengths: bool = False
    exact_sums: bool = False
    length_rows: Optional[List[List[float]]] = None
    target_rows: Optional[List[List[int]]] = None
    target_weight_rows: Optional[List[List[float]]] = None
    unit_weight_nodes: Optional[List[bool]] = None
    uses_arrays: bool = False
    #: Restore-side only (never pickled as set): the dense float64 length
    #: matrix as a read-only zero-copy view over the shared segment, adopted
    #: straight into ``IndexedGame._length_matrix``.
    length_matrix: Any = None


#: Names of the shared-segment arrays an array-mode table export produces.
TABLE_ARRAY_KEYS = ("tables.lengths", "tables.tindptr", "tables.tindices", "tables.tweights")


def export_tables(indexed) -> Tuple[SnapshotTables, Dict[str, Any]]:
    """Export ``indexed``'s static tables for shipping to pool workers.

    Returns ``(tables, arrays)`` suitable for :func:`pack_payload`.  Uniform
    compact games (shared aliased rows) return a marker with no payload —
    rebuilding them is ``O(n)``.  General games export the dense length
    matrix and a ragged target CSR as int64/float64 arrays when numpy is
    available (zero-copy attach on the other side), or embed the plain list
    rows in the pickled tables otherwise.
    """
    n = indexed.n
    shared = n >= 2 and indexed.length_rows[0] is indexed.length_rows[-1]
    if shared or n < 2:
        return SnapshotTables(labels=indexed.labels, compact=True), {}
    if _np is not None:
        tindptr = [0]
        tindices: List[int] = []
        tweights: List[float] = []
        for row, weights in zip(indexed.target_rows, indexed.target_weight_rows):
            tindices.extend(row)
            tweights.extend(weights)
            tindptr.append(len(tindices))
        arrays = {
            "tables.lengths": _np.asarray(indexed.length_rows, dtype=_np.float64),
            "tables.tindptr": _np.asarray(tindptr, dtype=_np.int64),
            "tables.tindices": _np.asarray(tindices, dtype=_np.int64),
            "tables.tweights": _np.asarray(tweights, dtype=_np.float64),
        }
        tables = SnapshotTables(
            labels=indexed.labels,
            compact=False,
            integral_lengths=indexed.integral_lengths,
            exact_sums=indexed.exact_sums,
            unit_weight_nodes=list(indexed.unit_weight_nodes),
            uses_arrays=True,
        )
        return tables, arrays
    tables = SnapshotTables(
        labels=indexed.labels,
        compact=False,
        integral_lengths=indexed.integral_lengths,
        exact_sums=indexed.exact_sums,
        length_rows=[list(row) for row in indexed.length_rows],
        target_rows=[list(row) for row in indexed.target_rows],
        target_weight_rows=[list(row) for row in indexed.target_weight_rows],
        unit_weight_nodes=list(indexed.unit_weight_nodes),
    )
    return tables, {}


def restore_tables(
    tables: Optional[SnapshotTables], arrays: Dict[str, Any]
) -> Optional[SnapshotTables]:
    """Rehydrate an :func:`export_tables` payload into list-space tables.

    Returns a :class:`SnapshotTables` whose row lists are bit-identical to
    the parent's (float64 byte round trips are exact), ready for
    ``IndexedGame(game, tables=...)``; ``None`` (or a ``compact`` marker)
    means the worker should construct normally.  Array-mode payloads are
    materialised with ``tolist()`` here — the adopted dense length matrix
    itself stays a zero-copy view (see ``IndexedGame``).
    """
    if tables is None or tables.compact:
        return tables
    if not tables.uses_arrays:
        return tables
    if _np is None:  # pragma: no cover - fork pool mirrors parent's numpy
        raise RuntimeError("array-mode SnapshotTables require numpy")
    matrix = arrays["tables.lengths"]
    tindptr = arrays["tables.tindptr"].tolist()
    tindices = arrays["tables.tindices"].tolist()
    tweights = arrays["tables.tweights"].tolist()
    target_rows = [
        tindices[tindptr[u] : tindptr[u + 1]] for u in range(len(tindptr) - 1)
    ]
    target_weight_rows = [
        tweights[tindptr[u] : tindptr[u + 1]] for u in range(len(tindptr) - 1)
    ]
    return SnapshotTables(
        labels=tables.labels,
        compact=False,
        integral_lengths=tables.integral_lengths,
        exact_sums=tables.exact_sums,
        length_rows=[row.tolist() for row in matrix],
        target_rows=target_rows,
        target_weight_rows=target_weight_rows,
        unit_weight_nodes=list(tables.unit_weight_nodes),
        length_matrix=matrix,
    )


__all__ = [
    "EngineSnapshot",
    "PAYLOAD_ALIGN",
    "SnapshotTables",
    "TABLE_ARRAY_KEYS",
    "csr_arrays_of",
    "csr_of",
    "export_tables",
    "pack_payload",
    "restore_tables",
    "unpack_payload",
]
