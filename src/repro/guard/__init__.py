"""Supervised grid execution: deadlines, retries, quarantine, journals.

The paper's artefacts are long-running sweeps (the fig5/6/7
compile-and-profile grids, the Table 5 pixelfly hyper-parameter sweep).
This package's supervisor is the worker pool that runs every
multi-process :func:`~repro.bench.parallel.run_grid`, and it makes the
sweeps *survivable*: a grid cell that hangs, crashes or fails
transiently never discards a completed sibling.  It gives grids the
same treatment :mod:`repro.faults` gave the simulated hardware —
failures are expected, bounded, observable, and recoverable:

* **Deadlines** — a per-cell wall-clock budget enforced by a watchdog
  that kills the hung worker process and replaces it
  (:class:`GuardPolicy.cell_timeout_s`).
* **Retries** — transient failures (crashes, deadline kills,
  :class:`TransientError`, unrecovered *transient* hardware fault kinds
  from :mod:`repro.faults`) are retried with seeded
  exponential-backoff-with-jitter; the backoff schedule is a pure
  function of ``(seed, cell index, attempt)``, so replays are exact.
* **Quarantine** — a cell that fails permanently, or exhausts its retry
  budget, is quarantined so the rest of the grid completes; the
  per-cell :class:`GridReport` says what happened to every cell instead
  of the first failure aborting the sweep (``strict=True`` restores the
  raise, after the whole grid has been driven to completion).
* **Journals** — completed cells append to an on-disk journal (atomic
  writes via :mod:`repro.faults.checkpoint`, keyed by
  :func:`repro.cache.canonical_key` over the worker identity, grid seed
  and config), so ``resume=True`` after a mid-grid kill re-executes
  only the missing cells with bit-identical results.

``run_grid(..., jobs > 1)`` without a policy runs with no retries and
``strict=True``.  Pass a :class:`GuardPolicy` as ``run_grid(...,
guard=policy)`` for the rest — or from the command line::

    python -m repro fig5 --jobs 4 --cell-timeout 120 --retries 2 --resume

See docs/RESILIENCE.md ("Supervised grids") for the full story and
docs/OBSERVABILITY.md for the ``guard.*`` metrics and the ``guard``
section of ``repro.run/1`` manifests.
"""

from repro.guard.policy import (
    PERMANENT,
    TRANSIENT,
    GuardPolicy,
    TransientError,
    classify_exception,
)
from repro.guard.report import (
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RETRIED,
    STATUS_TIMED_OUT,
    CellReport,
    GridReport,
    record_report,
    reporting,
)
from repro.guard.journal import GridJournal, JournalEntry
from repro.guard.supervisor import run_supervised_grid

__all__ = [
    "GuardPolicy",
    "TransientError",
    "classify_exception",
    "TRANSIENT",
    "PERMANENT",
    "CellReport",
    "GridReport",
    "STATUS_OK",
    "STATUS_RETRIED",
    "STATUS_QUARANTINED",
    "STATUS_TIMED_OUT",
    "reporting",
    "record_report",
    "GridJournal",
    "JournalEntry",
    "run_supervised_grid",
]
