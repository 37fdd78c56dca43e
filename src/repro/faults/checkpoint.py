"""Atomic, corruption-tolerant training checkpoints.

A checkpoint is one ``.npz`` file holding named numpy arrays (model
parameters, optimiser slots) plus a JSON metadata blob (epoch/step
cursor, RNG bit-generator states, partial-epoch metrics).  Writes are
atomic — serialise to a temporary file in the same directory, fsync,
then :func:`os.replace` — so a run killed mid-save never leaves a
half-written "latest" checkpoint: the rename either happened or it
did not.

:class:`CheckpointManager` keeps the ``keep`` most recent checkpoints
and, on load, transparently falls back past corrupt (e.g. truncated)
files to the newest readable one, raising :class:`CheckpointError` only
when *no* checkpoint survives.

This module deliberately imports nothing from ``repro.nn`` or
``repro.ipu`` — the trainer imports *it*, not the other way round.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from pathlib import Path

import numpy as np

__all__ = [
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointManager",
]

#: Reserved npz key carrying the JSON metadata blob.
_META_KEY = "__meta__"

#: Checkpoint format version (bump on incompatible layout changes).
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt, or incompatible."""


#: Per-process suffix counter so concurrent saves never share a temp file.
_tmp_counter = itertools.count()


def save_checkpoint(
    path: str | Path, arrays: dict[str, np.ndarray], meta: dict
) -> Path:
    """Atomically write *arrays* + *meta* to *path* (``.npz`` format).

    The temporary file lives in the destination directory so the final
    :func:`os.replace` is a same-filesystem rename (atomic on POSIX).
    Its name is unique per (process, call) — ``<name>.<pid>.<seq>.tmp``
    — so two processes writing the same destination (e.g. a shared
    compilation-cache directory) never interleave partial writes: each
    serialises its own temp file and the last rename wins whole.
    """
    path = Path(path)
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved")
    payload = dict(arrays)
    payload[_META_KEY] = np.array(
        json.dumps({"format_version": FORMAT_VERSION, **meta})
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{next(_tmp_counter)}.tmp"
    )
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    return path


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` (never a raw ``zipfile``/``json``
    error) if the file is unreadable, truncated, or missing its metadata.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint {path} does not exist")
    try:
        # Given a path, np.load leaves a corrupt archive's file open
        # until garbage collection; a handle opened here always closes.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            if _META_KEY not in data:
                raise CheckpointError(
                    f"checkpoint {path} has no {_META_KEY} entry"
                )
            meta = json.loads(str(data[_META_KEY]))
            arrays = {
                k: np.asarray(data[k]) for k in data.files if k != _META_KEY
            }
    except CheckpointError:
        raise
    except Exception as exc:  # zipfile/OSError/ValueError/json errors
        raise CheckpointError(
            f"checkpoint {path} is corrupt or unreadable: {exc}"
        ) from exc
    version = meta.pop("format_version", None)
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, "
            f"expected {FORMAT_VERSION}"
        )
    return arrays, meta


#: Files of a :class:`CheckpointManager` match ``ckpt-<step>.npz``.
_CHECKPOINT_NAME = re.compile(r"^ckpt-(\d+)\.npz$")


class CheckpointManager:
    """Rotating checkpoint store: ``<dir>/ckpt-<step>.npz``.

    ``keep`` >= 2 gives the corruption fallback something to fall back
    *to*; ``keep=0`` disables pruning entirely.
    """

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        self.directory = Path(directory)
        self.keep = keep

    def path_for(self, step: int) -> Path:
        return self.directory / f"ckpt-{step:010d}.npz"

    def step_of(self, path: str | Path) -> int:
        """The step number encoded in a checkpoint filename."""
        m = _CHECKPOINT_NAME.match(Path(path).name)
        if m is None:
            raise ValueError(f"{path} is not a 'ckpt' checkpoint")
        return int(m.group(1))

    def checkpoints(self) -> list[Path]:
        """All checkpoint files present, oldest first."""
        if not self.directory.is_dir():
            return []
        found = [
            p
            for p in self.directory.iterdir()
            if _CHECKPOINT_NAME.match(p.name)
        ]
        return sorted(found, key=self.step_of)

    def save(
        self, step: int, arrays: dict[str, np.ndarray], meta: dict
    ) -> Path:
        """Write the checkpoint for *step* and prune old ones."""
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        path = save_checkpoint(self.path_for(step), arrays, meta)
        self.prune()
        return path

    def prune(self) -> list[Path]:
        """Delete all but the ``keep`` newest checkpoints; returns deleted."""
        if self.keep == 0:
            return []
        existing = self.checkpoints()
        stale = existing[: -self.keep] if len(existing) > self.keep else []
        for p in stale:
            p.unlink()
        return stale

    def load_latest(
        self,
    ) -> tuple[int, dict[str, np.ndarray], dict] | None:
        """Newest *readable* checkpoint as ``(step, arrays, meta)``.

        Corrupt files (truncated writes, bad zip members) are skipped —
        newest first — so a damaged latest checkpoint falls back to its
        predecessor.  Returns ``None`` when the directory holds no
        checkpoints at all; raises :class:`CheckpointError` when every
        checkpoint present is corrupt.
        """
        candidates = self.checkpoints()
        if not candidates:
            return None
        errors: list[str] = []
        for path in reversed(candidates):
            try:
                arrays, meta = load_checkpoint(path)
            except CheckpointError as exc:
                errors.append(str(exc))
                continue
            return self.step_of(path), arrays, meta
        raise CheckpointError(
            "all checkpoints are corrupt:\n  " + "\n  ".join(errors)
        )
