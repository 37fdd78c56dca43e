"""Deterministic parallel experiment runner.

Grid experiments (fig5/fig6/fig7/table2/table5) are embarrassingly
parallel: each configuration compiles and times its graphs independently
of every other.  :func:`run_grid` fans a top-level worker function out
over worker processes while keeping every result bitwise identical to a
serial run:

* **One engine** — ``jobs=1`` without a guard policy runs the cells in
  process; everything else goes through :mod:`repro.guard`'s supervised
  worker pool.  Without a policy that means no retries and ``strict``:
  any failed cell raises :class:`WorkerError` once the grid completes.
* **Seeding** — each configuration gets its own child of
  ``numpy.random.SeedSequence(seed)`` (spawned in config order), so the
  stream a config sees does not depend on which worker ran it or in what
  order.  A serial run (``jobs=1``) walks the *same* spawned sequences.
* **Ordering** — results come back in submission (config) order
  regardless of completion order, and worker metric/cache statistics are
  merged into the parent in that same order.
* **Crash surfacing** — an exception inside a worker, or a worker
  process dying outright, fails only its own cell.  Every outcome is
  collected before raising: the :class:`WorkerError` names *all*
  failing configs and carries the completed results (``exc.failures`` /
  ``exc.results``), so one bad cell does not discard its siblings' work.
* **Caching** — workers open the same on-disk
  :class:`~repro.cache.CompilationCache` directory (safe: entry writes
  are atomic per-process temp files + rename), so one worker's compile
  is every other worker's hit.  Their hit/miss counters merge into the
  parent cache's stats.

Worker functions must be defined at module top level (workers use the
``spawn`` start method — fork is unsafe with threaded BLAS — and spawn
pickles by reference).  They receive ``(config, seed_seq)`` and return
any picklable value.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.guard.policy import GuardPolicy
from repro.guard.supervisor import run_supervised_grid
from repro.obs.context import derive_run_id, worker_track
from repro.obs.log import get_logger
from repro.obs.metrics import MetricRegistry
from repro.obs.propagate import obs_spec, worker_observability
from repro.obs.tracer import get_tracer

__all__ = ["WorkerError", "run_grid"]

#: The policy for ``jobs > 1`` grids run without one: no retries, and a
#: :class:`WorkerError` naming every failed cell once the grid completes.
_UNGUARDED = GuardPolicy(retries=0, strict=True)


class WorkerError(RuntimeError):
    """One or more worker processes failed.

    ``config``/``detail`` describe the *first* failure (in config
    order); ``failures`` lists every ``(config, detail)`` pair and
    ``results`` holds the grid's completed results in config order with
    ``None`` for the cells that failed — a single bad cell no longer
    costs the caller every finished sibling.
    """

    def __init__(
        self,
        config: Any,
        detail: str,
        *,
        failures: list[tuple[Any, str]] | None = None,
        results: list[Any] | None = None,
    ) -> None:
        self.config = config
        self.detail = detail
        self.failures = failures if failures is not None else [(config, detail)]
        self.results = results if results is not None else []
        message = f"worker failed for config {config!r}:\n{detail}"
        if len(self.failures) > 1:
            others = ", ".join(repr(c) for c, _ in self.failures[1:])
            message += (
                f"\n(+ {len(self.failures) - 1} more failed "
                f"config(s): {others})"
            )
        super().__init__(message)


def run_grid(
    worker: Callable,
    configs: Sequence[Any],
    *,
    jobs: int = 1,
    seed: int = 0,
    cache_dir: str | Path | None = None,
    registry: MetricRegistry | None = None,
    guard: GuardPolicy | None = None,
    name: str | None = None,
) -> list[Any]:
    """Run ``worker(config, seed_seq)`` for every config; ordered results.

    ``jobs=1`` without *guard* runs serially in-process (same seed
    spawning, current global cache/registry — zero pickling), and a
    worker exception propagates as is.  Any other call is delegated to
    :func:`repro.guard.run_supervised_grid` (even ``jobs=1`` with a
    guard — the watchdog and journal need a subprocess): *worker* must
    then be picklable (module top level) and *cache_dir* points every
    worker at one shared on-disk cache — defaulting to the ambient
    global cache's directory, so ``python -m repro fig5 --jobs 4``
    shares its cache with the workers without any experiment-level
    plumbing.  Worker metric snapshots merge into *registry* (default:
    the global one) and worker cache stats merge into the parent's
    global cache, in config order.

    *guard* defaults to no retries and ``strict``.  Under a strict
    policy a :class:`WorkerError` naming every failed cell is raised
    after the grid completes; otherwise failed cells come back as
    ``None``.  *name* labels the resulting
    :class:`~repro.guard.GridReport`.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    configs = list(configs)

    if jobs == 1 and guard is None:
        seed_seqs = np.random.SeedSequence(seed).spawn(len(configs))
        grid_name = name or getattr(worker, "__qualname__", "grid")
        run_id = derive_run_id(grid_name, seed, len(configs))
        parent_tracer = get_tracer()
        parent_log = get_logger()
        # Each cell gets the same fresh per-cell instruments a worker
        # process would, merged back under the same cell{i}/... tracks —
        # so a serial grid's merged timeline is identical to a parallel
        # one.  With observability off the spec is None and the null
        # instruments install and record nothing.
        results = []
        for index, (config, seed_seq) in enumerate(zip(configs, seed_seqs)):
            spec = obs_spec(run_id, grid_name, index)
            with worker_observability(spec) as (tracer, runlog):
                try:
                    results.append(worker(config, seed_seq))
                finally:
                    parent_tracer.merge_snapshot(
                        tracer.snapshot(), prefix=worker_track(index)
                    )
                    parent_log.merge_snapshot(
                        runlog.snapshot(), worker=index
                    )
        return results

    policy = guard if guard is not None else _UNGUARDED
    results, report = run_supervised_grid(
        worker,
        configs,
        policy=policy,
        jobs=jobs,
        seed=seed,
        cache_dir=cache_dir,
        registry=registry,
        name=name,
    )
    if policy.strict and not report.ok:
        failures = [
            (configs[cell.index], cell.error or cell.status)
            for cell in report.failed_cells()
        ]
        raise WorkerError(
            failures[0][0],
            failures[0][1],
            failures=failures,
            results=results,
        )
    return results
