"""Ambient trace context: the correlation ids that cross process lines.

Distributed tracing needs every span, log event and metric produced
anywhere in a run to be attributable to (a) the run it belongs to and
(b) the place in the parent's span tree that spawned the work — the
Dapper model, with the Chrome ``trace_event`` format as interchange.
This module carries exactly that state:

* :class:`TraceContext` is a frozen triple ``(run_id, parent_span,
  worker)``.  The grid runners (:mod:`repro.bench.parallel`,
  :mod:`repro.guard.supervisor`) derive one context per grid cell and
  install it inside the worker process; :mod:`repro.obs.log` stamps the
  fields onto every event it records.
* ``run_id`` is **deterministic** — a content hash of the grid's
  identity (:func:`derive_run_id`), not a UUID — so ``--jobs 4`` and
  ``--jobs 1`` runs of the same grid produce identical correlation ids
  and the merged-timeline determinism tests can compare them verbatim.
* :func:`worker_track` names the per-cell trace track a worker's span
  buffer is merged onto (``cell3/host``, ``cell3/ipu``, ...).  Tracks
  are keyed by **cell index**, never by pool-worker identity: which OS
  process ran a cell is scheduling noise, the cell index is not.

It also defines :class:`Ambient`, the one install mechanism behind
every ambient instrument — the tracer, metric registry, run log, trace
context, compilation cache and grid-report collector are each one
``Ambient`` slot with a ``get_*`` reader and a ``with`` installer
(here :func:`get_context` / :func:`context`).  It lives in this module
because this is the one :mod:`repro.obs` module that imports nothing
from ``repro``.  The default :data:`ROOT_CONTEXT` has empty ids, costs
nothing, and is what every non-grid (single-process) run sees.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ContextManager, Generic, Iterator, TypeVar

__all__ = [
    "Ambient",
    "TraceContext",
    "ROOT_CONTEXT",
    "get_context",
    "context",
    "derive_run_id",
    "worker_track",
]

T = TypeVar("T")


class Ambient(Generic[T]):
    """A process-wide slot holding the installed value of one instrument.

    :meth:`get` returns the installed value (*default* until something
    is installed); :meth:`use` installs a value for the duration of a
    ``with`` block and restores the previous one on exit, so installs
    nest and survive exceptions.  There is no setter: every install is
    scoped to a block.
    """

    __slots__ = ("_value",)

    def __init__(self, default: T) -> None:
        self._value = default

    def get(self) -> T:
        return self._value

    @contextmanager
    def use(self, value: T) -> Iterator[T]:
        previous = self._value
        self._value = value
        try:
            yield value
        finally:
            self._value = previous


@dataclass(frozen=True)
class TraceContext:
    """Correlation ids for the current unit of work.

    ``run_id``
        Deterministic id of the enclosing (grid) run; empty outside one.
    ``parent_span``
        Name of the parent-side span this work nests under (e.g.
        ``"fig6.cell3"``); empty at the root.
    ``worker``
        The grid-cell index this process/section is executing, or
        ``None`` in the parent (and outside grids).
    """

    run_id: str = ""
    parent_span: str = ""
    worker: int | None = None

    def as_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "parent_span": self.parent_span,
            "worker": self.worker,
        }


#: The default context: no run, no parent, no worker.
ROOT_CONTEXT = TraceContext()

_CONTEXT: Ambient[TraceContext] = Ambient(ROOT_CONTEXT)

#: The currently installed trace context (root by default).
get_context = _CONTEXT.get


def context(ctx: TraceContext) -> ContextManager[TraceContext]:
    """Install a trace context for the duration of a ``with`` block."""
    return _CONTEXT.use(ctx)


def derive_run_id(*parts: object) -> str:
    """A deterministic 12-hex-digit run id from *parts*.

    Content-derived (blake2b over the parts' reprs), so two runs of the
    same grid — serial or parallel, live or resumed — share a run id,
    which is what lets the determinism tests compare correlation fields
    exactly.  Distinct grids (different worker, seed or size) differ.
    """
    h = hashlib.blake2b(digest_size=6)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def worker_track(index: int) -> str:
    """Track-name prefix for grid cell *index*'s merged span buffer.

    A worker span recorded on track ``t`` lands on ``cell{index}/t`` in
    the merged parent trace; keyed by cell index so serial, pooled and
    supervised runs of one grid agree on track names.
    """
    return f"cell{index}"
