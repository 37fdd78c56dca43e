"""Append-only journal of completed grid cells, enabling ``--resume``.

Each completed cell becomes one content-addressed entry file in the
journal directory, written with the atomic write-temp/fsync/rename
discipline of :mod:`repro.faults.checkpoint` — a run killed mid-write
never leaves a half-written entry, and concurrent writers never
interleave.  The *set of entry files* is the journal; appending is file
creation, so there is no index to corrupt and no compaction to race.

Keys come from :func:`repro.cache.canonical_key` over the worker's
identity (module + qualname), the grid seed, the cell index and the
config's canonical ``repr`` — the same inputs that determine the cell's
result — so a resume only ever replays an entry produced by an
identical computation, and a changed worker, seed or config simply
misses.

An entry stores the cell's *result* (pickled) **and** the ``side``
dict its worker sent back with it — metric snapshot, cache statistics,
trace and log buffers; resuming merges that side into the parent
exactly as a live worker's, which is what makes a resumed run's
manifest metrics and merged timeline bit-identical to an uninterrupted
one.  Corrupt or foreign files are skipped (counted, never raised),
mirroring the compilation cache's fallback contract.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.cache import canonical_key
from repro.faults.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)

__all__ = ["JOURNAL_SCHEMA", "JournalEntry", "GridJournal", "cell_key"]

#: Entry format tag; mixed into every key and checked on read, so a
#: layout change invalidates old entries instead of misreading them.
#: ``/3`` stores the worker's side-band as one ``side`` dict; ``/2``
#: entries miss once and re-run.
JOURNAL_SCHEMA = "repro.guard.journal/3"


def cell_key(worker: Callable, seed: int, index: int, config: Any) -> str:
    """Content key for one grid cell.

    The config contributes through its ``repr`` (configs are tuples of
    scalars and frozen dataclasses throughout the experiment drivers,
    whose reprs are deterministic); the worker contributes by identity
    so two grids sharing a journal directory cannot collide.
    """
    return canonical_key(
        JOURNAL_SCHEMA,
        getattr(worker, "__module__", "?"),
        getattr(worker, "__qualname__", repr(worker)),
        int(seed),
        int(index),
        repr(config),
    )


@dataclass(frozen=True)
class JournalEntry:
    """One journalled cell: its result plus the worker's side-band.

    ``side`` is the dict the worker sent with its result: ``metrics``
    (registry snapshot), ``cache`` (cache statistics), ``trace`` (the
    tracer's snapshot, see :meth:`repro.obs.tracer.Tracer.snapshot`)
    and ``logs`` (the structured-log snapshot); the trace and log
    buffers are empty when the cell originally ran with observability
    disabled.
    """

    key: str
    index: int
    config: str
    result: Any
    side: dict


class GridJournal:
    """Directory-backed journal of completed cells.

    ``corrupt`` counts entries that existed but could not be replayed
    (truncated writes, schema drift); they are treated as missing.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"cell-{key}.npz"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def record(
        self,
        key: str,
        index: int,
        config: Any,
        result: Any,
        side: dict,
    ) -> Path:
        """Atomically append the completed cell under *key*."""
        payload = np.frombuffer(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
            dtype=np.uint8,
        )
        meta = {
            "journal_schema": JOURNAL_SCHEMA,
            "key": key,
            "index": int(index),
            "config": repr(config),
            "side": side,
        }
        return save_checkpoint(self._path(key), {"result": payload}, meta)

    def lookup(self, key: str) -> JournalEntry | None:
        """The entry under *key*, or ``None`` (corrupt counts as missing)."""
        path = self._path(key)
        if not path.exists():
            return None
        try:
            arrays, meta = load_checkpoint(path)
        except CheckpointError:
            self.corrupt += 1
            return None
        if (
            meta.get("journal_schema") != JOURNAL_SCHEMA
            or meta.get("key") != key
            or "result" not in arrays
        ):
            self.corrupt += 1
            return None
        try:
            result = pickle.loads(arrays["result"].tobytes())
        except Exception:
            self.corrupt += 1
            return None
        return JournalEntry(
            key=key,
            index=int(meta["index"]),
            config=str(meta["config"]),
            result=result,
            side=dict(meta.get("side", {})),
        )

    def keys(self) -> list[str]:
        """Every key with an entry file present (sorted, corrupt included)."""
        if not self.directory.is_dir():
            return []
        return sorted(
            p.name[len("cell-") : -len(".npz")]
            for p in self.directory.iterdir()
            if p.name.startswith("cell-") and p.name.endswith(".npz")
        )

    def __len__(self) -> int:
        return len(self.keys())
