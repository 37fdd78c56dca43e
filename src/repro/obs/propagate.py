"""Cross-process observability propagation for the grid runners.

The parent side of a grid (:func:`repro.guard.run_supervised_grid`,
which runs every multi-process :func:`repro.bench.parallel.run_grid`)
cannot ship its live tracer or log into a ``spawn`` worker — neither
pickles, and sharing one buffer across processes would serialize the
grid.  What crosses the boundary instead is:

* **down**: an :func:`obs_spec` — a small picklable dict saying which
  instruments the parent has enabled plus the cell's trace context
  (deterministic run id, parent span name, cell index).  ``None`` when
  everything is disabled, so the disabled path ships nothing and
  installs nothing (byte-identical to an uninstrumented run).
* **up**: the worker's ``tracer.snapshot()`` / ``runlog.snapshot()``
  buffers, appended to the existing pipe message tuples; the parent
  merges them onto ``cell{i}/...`` tracks
  (:meth:`~repro.obs.tracer.Tracer.merge_snapshot`).

:func:`worker_observability` is the worker-side half: installed around
the cell body in supervised workers *and* the serial in-process path,
so ``--jobs 1`` and ``--jobs 4`` runs build their merged timelines
through the identical mechanism.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.context import TraceContext, context
from repro.obs.log import NULL_LOG, RunLog, get_logger, logging
from repro.obs.tracer import NULL_TRACER, Tracer, get_tracer, tracing

__all__ = ["obs_spec", "worker_observability"]


def obs_spec(
    run_id: str, parent_span: str, worker: int
) -> dict | None:
    """The picklable observability request for one grid cell.

    Reads the *ambient* tracer/log: the spec asks the worker to enable
    exactly the instruments the parent has on.  Returns ``None`` when
    both are off — the sentinel every runner checks to keep the
    disabled path free of child tracers, context installs and buffer
    shipping.
    """
    tracer = get_tracer()
    log = get_logger()
    if not tracer.enabled and not log.enabled:
        return None
    return {
        "run_id": run_id,
        "parent_span": parent_span,
        "worker": int(worker),
        "trace": bool(tracer.enabled),
        "log": bool(log.enabled),
    }


@contextmanager
def worker_observability(
    spec: dict | None,
) -> Iterator[tuple[Tracer, RunLog]]:
    """Install the instruments *spec* asks for; yield ``(tracer, log)``.

    With a spec, fresh buffers and the cell's :class:`TraceContext` are
    installed for the block (null instruments for whichever side is
    off, so a worker never inherits a parent buffer in-process).  With
    ``None``, the ambient state is left completely untouched and the
    null instruments are yielded, so callers need no disabled branch.

    The yielded objects outlive the block: snapshot them *after* (or
    in an ``except`` around) the cell body — spans closed by an
    unwinding exception are already flushed into the buffer.
    """
    if spec is None:
        yield NULL_TRACER, NULL_LOG
        return
    tracer = Tracer() if spec.get("trace") else NULL_TRACER
    runlog = RunLog() if spec.get("log") else NULL_LOG
    ctx = TraceContext(
        run_id=spec.get("run_id", ""),
        parent_span=spec.get("parent_span", ""),
        worker=spec.get("worker"),
    )
    with tracing(tracer), logging(runlog), context(ctx):
        yield tracer, runlog
