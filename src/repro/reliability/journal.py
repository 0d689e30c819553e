"""Crash-safe checkpoint journal for long sweeps and study grids.

A :class:`CheckpointJournal` is a tiny on-disk map of completed work units —
Gray-code profile ranges for the exhaustive searches, grid-cell results for
``parallel_map`` — rewritten atomically (``tmp`` + ``os.replace``) on every
flush, so a killed run leaves either the previous consistent journal or the
new one, never a truncated file.  Resuming is then just "skip what the
journal already holds": :func:`repro.core.search
.exhaustive_equilibrium_search` skips completed profile ranges and
:func:`repro.experiments.parallel.parallel_map` skips completed cells.

Keys are strings; values must survive a JSON round trip unchanged (dicts,
lists, strings, numbers, booleans, ``None``) — exactly the shape of study
rows and search-range summaries.  A journal written by a different search
(mismatched ``meta``) or a corrupt file raises
:class:`~repro.reliability.faults.CheckpointError` instead of silently
resuming the wrong run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional

from .faults import CheckpointError

_FORMAT = "repro-checkpoint-v1"
_MISSING = object()


def atomic_write_text(path: "Path | str", text: str) -> None:
    """Write ``text`` to ``path`` atomically (``tmp`` + ``os.replace``).

    The temporary file lives in the destination directory so the replace is
    a same-filesystem rename; a crash mid-write leaves the previous file (or
    no file) intact, never a truncated one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class CheckpointJournal:
    """An atomic on-disk record of completed work units.

    Every change (:meth:`record`, :meth:`bind_meta`, :meth:`clear`) is
    flushed to disk before the call returns, so a kill loses at most the
    work unit that was in flight.
    """

    def __init__(self, path: "Path | str") -> None:
        self.path = Path(path)
        self._entries: Dict[str, object] = {}
        self._meta: Optional[dict] = None
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            data = json.loads(self.path.read_text())
        except (ValueError, OSError) as exc:
            raise CheckpointError(
                f"checkpoint journal {self.path} is unreadable or corrupt ({exc}); "
                "delete it to start over"
            ) from exc
        if not isinstance(data, dict) or data.get("journal") != _FORMAT:
            raise CheckpointError(
                f"checkpoint journal {self.path} is not a {_FORMAT} file; "
                "delete it to start over"
            )
        entries = data.get("entries")
        self._entries = dict(entries) if isinstance(entries, dict) else {}
        meta = data.get("meta")
        self._meta = meta if isinstance(meta, dict) else None

    # ------------------------------------------------------------------ #
    # Run identity
    # ------------------------------------------------------------------ #
    def bind_meta(self, meta: dict) -> None:
        """Pin the journal to one run shape, or verify it on resume.

        The first binding stores ``meta`` verbatim; later bindings compare
        (after a JSON round trip, so tuples and lists agree) and raise
        :class:`CheckpointError` on mismatch — a journal must never resume a
        *different* search as if it were the same one.
        """
        normalised = json.loads(json.dumps(meta))
        if self._meta is None:
            self._meta = normalised
            self.flush()
            return
        if self._meta != normalised:
            raise CheckpointError(
                f"checkpoint journal {self.path} belongs to a different run "
                f"(recorded meta {self._meta!r}, current {normalised!r}); "
                "use a fresh journal path or delete the stale file"
            )

    # ------------------------------------------------------------------ #
    # Entries
    # ------------------------------------------------------------------ #
    def __contains__(self, key: str) -> bool:
        return str(key) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, default=None):
        """Return the recorded value of ``key`` (``default`` when absent)."""
        value = self._entries.get(str(key), _MISSING)
        return default if value is _MISSING else value

    def record(self, key: str, value=None) -> None:
        """Mark ``key`` complete with ``value`` and flush."""
        self._entries[str(key)] = value
        self.flush()

    def flush(self) -> None:
        """Atomically rewrite the journal file from the in-memory state."""
        payload = {"journal": _FORMAT, "meta": self._meta, "entries": self._entries}
        atomic_write_text(self.path, json.dumps(payload, indent=2) + "\n")

    def clear(self) -> None:
        """Drop every entry and the bound meta, and rewrite the file."""
        self._entries = {}
        self._meta = None
        self.flush()


def resolve_journal(journal) -> Optional[CheckpointJournal]:
    """Normalise a ``journal`` argument: ``None``, a journal, or a path."""
    if journal is None or isinstance(journal, CheckpointJournal):
        return journal
    return CheckpointJournal(journal)


__all__ = ["CheckpointJournal", "atomic_write_text", "resolve_journal"]
