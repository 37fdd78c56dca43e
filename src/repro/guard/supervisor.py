"""The supervised worker pool: every multi-process grid runs here.

Each attempt runs in a process of its own, forked from the process
that runs the grid, so it starts with every module the parent has
loaded, in the state an in-process ``jobs=1`` cell would see.  The task
is pickled before the fork and the child runs the unpickled copy;
exactly one message comes back over a private one-way pipe, so the
watchdog can kill exactly the hung cell, an ``os._exit`` loses exactly
one attempt, siblings never observe each other's deaths, and no cell
sees the module state another cell left behind.

Event loop
----------

The parent multiplexes all live attempts with
:func:`multiprocessing.connection.wait`, bounded by the nearest of (a)
a running cell's deadline, which starts once its process has been
forked, and (b) a backed-off retry's wake time.  An attempt ends in one
of four ways:

* **result** — the child sent ``("ok", result, side)``, where the
  ``side`` dict holds its metric snapshot (``metrics``), cache
  statistics (``cache``) and tracer/log snapshots (``trace``, ``logs``;
  see :mod:`repro.obs.propagate`);
* **failure** — it sent ``("error", traceback, verdict, side)`` with
  the transient/permanent verdict classified child-side
  (:func:`repro.guard.policy.classify_exception`) and a ``side`` of
  just the ``trace`` and ``logs`` the attempt flushed before dying (a
  failed attempt's metrics and cache counts are dropped);
* **crash** — the pipe hit EOF without a message (``os._exit``, OOM
  kill, interpreter abort): the cell is retried as a transient failure;
* **deadline** — the watchdog ``terminate()``-s the process and the
  cell is retried; a cell whose *last* failure was a deadline kill is
  reported ``timed_out`` rather than ``quarantined``.

Every process lost to a crash or a deadline kill counts as a pool
rebuild (an attempt that reported an error does not); past
:data:`MAX_POOL_REBUILDS` the supervisor degrades to serial execution
(one live process) for the remaining cells, bounding the blast radius
of a misbehaving environment.

Determinism
-----------

Results and every cell's ``side`` (metrics, cache stats, trace and log
buffers) are merged in config order after the grid completes —
identical to the serial runner — and each cell's seed comes from the
same ``SeedSequence.spawn`` walk, so a supervised run's results are
bitwise equal to a clean serial run regardless of retries, kills or
process count.  Child span buffers land on ``cell{i}/...`` tracks under
the grid's deterministic run id (:func:`repro.obs.context.derive_run_id`);
the journal stores each cell's ``side``, so ``--resume`` rebuilds the
merged timeline bit-identically.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Sequence

import numpy as np

from repro.cache import NULL_CACHE, CompilationCache, caching, get_cache
from repro.guard.journal import GridJournal, cell_key
from repro.guard.policy import PERMANENT, TRANSIENT, GuardPolicy, classify_exception
from repro.guard.report import (
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RETRIED,
    STATUS_TIMED_OUT,
    CellReport,
    GridReport,
    record_report,
)
from repro.obs.context import TraceContext, context as trace_context, derive_run_id, worker_track
from repro.obs.log import NULL_LOG, get_logger
from repro.obs.metrics import MetricRegistry, collecting, get_registry
from repro.obs.propagate import obs_spec, worker_observability
from repro.obs.tracer import NULL_TRACER, get_tracer

__all__ = ["GUARD_TRACK", "run_supervised_grid"]

#: Virtual trace track carrying one ``guard.cell`` span per attempt.
GUARD_TRACK = "guard"

#: Abnormal process deaths (crashes + deadline kills) tolerated before
#: the supervisor degrades to serial execution of the remaining cells.
MAX_POOL_REBUILDS = 4

#: How long to wait for a finished (or terminated) attempt's process to
#: actually exit before escalating to SIGKILL.
_JOIN_GRACE_S = 10.0


def _run_cell(
    worker: Callable,
    config: Any,
    seed_seq: np.random.SeedSequence,
    cache_dir: str | None,
    cached: bool,
    spec: dict | None,
) -> tuple:
    """Run one attempt and build the message the supervisor expects.

    The cell gets a fresh metric registry, per-cell observability from
    *spec* and, when *cached*, a fresh compilation cache (sharing the
    grid's disk directory, if any); otherwise it runs uncached, like a
    ``jobs=1`` cell under a parent without a cache.  Failures are
    classified while the live exception object is still in hand — the
    verdict crosses the process boundary, the exception type does not
    have to — and the trace/log buffers ride along on the failure path
    too, so whatever a dying attempt recorded reaches the supervisor.
    """
    cache = CompilationCache(path=cache_dir) if cached else NULL_CACHE
    tracer, runlog = NULL_TRACER, NULL_LOG
    try:
        with collecting() as registry, caching(cache), \
                worker_observability(spec) as (tracer, runlog):
            result = worker(config, seed_seq)
        side = {
            "metrics": registry.snapshot(),
            "cache": cache.stats.as_dict(),
            "trace": tracer.snapshot(),
            "logs": runlog.snapshot(),
        }
        return ("ok", result, side)
    except Exception as exc:
        side = {"trace": tracer.snapshot(), "logs": runlog.snapshot()}
        return ("error", traceback.format_exc(), classify_exception(exc), side)


def _supervised_child(conn: Connection, payload: memoryview) -> None:
    """Child entry point: run the one attempt *payload* describes.

    *payload* is the pickled ``(worker, config, seed_seq, cache_dir,
    cached, spec)``; exactly one message goes back over *conn*, and the
    process exits with it.
    """
    task = ForkingPickler.loads(payload)
    message = _run_cell(*task)
    try:
        conn.send(message)
    except Exception:
        # The result itself would not pickle: that is deterministic,
        # so report it as a permanent failure rather than crashing
        # (which would be retried pointlessly).  Both message shapes
        # end with the side dict; a failure keeps only its buffers.
        side = message[-1]
        conn.send(
            (
                "error",
                f"result for config {task[1]!r} is not picklable:\n"
                f"{traceback.format_exc()}",
                PERMANENT,
                {"trace": side["trace"], "logs": side["logs"]},
            )
        )


@dataclass
class _Cell:
    """Supervisor-side state for one grid cell."""

    index: int
    config: Any
    seed_seq: np.random.SeedSequence
    key: str
    report: CellReport
    attempt: int = 0  # attempts started so far
    result: Any = None
    side: dict = field(default_factory=dict)  # successful attempt's side
    done: bool = False
    last_failure: str = ""  # "error" | "crash" | "timeout"


@dataclass
class _Running:
    """One attempt's process and the supervisor's end of its pipe."""

    cell: _Cell
    process: Any
    conn: Connection
    started: float
    deadline: float | None


def _reap(run: _Running, kill: bool = False) -> None:
    """Close *run*'s pipe and wait for its process to exit.

    With *kill* the process is terminated first; one still alive after
    the grace period is killed outright.
    """
    run.conn.close()
    if kill and run.process.is_alive():
        run.process.terminate()
    run.process.join(_JOIN_GRACE_S)
    if run.process.is_alive():
        run.process.kill()
        run.process.join(_JOIN_GRACE_S)


def run_supervised_grid(
    worker: Callable,
    configs: Sequence[Any],
    *,
    policy: GuardPolicy,
    jobs: int = 1,
    seed: int = 0,
    registry: MetricRegistry | None = None,
    name: str | None = None,
) -> tuple[list[Any], GridReport]:
    """Run *worker* over *configs* under supervision.

    Returns ``(results, report)`` where *results* is in config order
    with ``None`` for cells that produced no result (quarantined or
    timed out) and *report* accounts for every attempt.  The report is
    also published to the ambient collector
    (:func:`repro.guard.report.record_report`).  Raising on failures is
    the caller's decision (``run_grid`` raises under ``strict``).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    configs = list(configs)
    seed_seqs = np.random.SeedSequence(seed).spawn(len(configs))
    registry = registry if registry is not None else get_registry()
    tracer = get_tracer()
    runlog = get_logger()
    parent_cache = get_cache()
    # Cells cache only when the parent does, sharing its disk directory.
    cached = parent_cache.enabled
    path = parent_cache.path
    cache_dir = str(path) if path is not None else None

    grid_name = name or getattr(worker, "__qualname__", "grid")
    run_id = derive_run_id(grid_name, seed, len(configs))
    parent_ctx = TraceContext(run_id=run_id, parent_span=grid_name)
    report = GridReport(name=grid_name)
    journal = (
        GridJournal(policy.journal_dir)
        if policy.journal_dir is not None
        else None
    )

    cells: list[_Cell] = []
    for index, (config, seed_seq) in enumerate(zip(configs, seed_seqs)):
        cell = _Cell(
            index=index,
            config=config,
            seed_seq=seed_seq,
            key=cell_key(worker, seed, index, config),
            report=CellReport(index=index, config=repr(config)),
        )
        cells.append(cell)
        report.cells.append(cell.report)

    # -- resume pre-pass: serve journalled cells without executing them.
    if journal is not None and policy.resume:
        with trace_context(parent_ctx):
            for cell in cells:
                entry = journal.lookup(cell.key)
                if entry is None:
                    continue
                cell.result = entry.result
                # The journalled side replays through the same post-grid
                # merge as a live worker's, which is what makes a
                # resumed manifest and timeline bit-identical.
                cell.side = entry.side
                cell.done = True
                cell.report.status = STATUS_OK
                cell.report.from_journal = True
                report.journal_hits += 1
                if runlog.enabled:
                    runlog.info(
                        "guard.journal_hit",
                        config=cell.report.config,
                        cell=cell.index,
                    )

    pending: list[_Cell] = [c for c in cells if not c.done]
    waiting: list[tuple[float, int, _Cell]] = []  # (wake time, index, cell)
    running: dict[Connection, _Running] = {}
    ctx = get_context("fork")
    max_workers = max(1, min(jobs, len(pending) or 1))

    def finalize(cell: _Cell, status: str, error: str | None = None) -> None:
        cell.done = True
        cell.report.status = status
        cell.report.error = error
        if status in (STATUS_QUARANTINED, STATUS_TIMED_OUT):
            if registry.enabled:
                registry.counter("guard.quarantined").inc()

    def launch(cell: _Cell) -> None:
        cell.attempt += 1
        cell.report.attempts = cell.attempt
        # A task that does not pickle raises here, before any process
        # exists.
        payload = ForkingPickler.dumps(
            (
                worker,
                cell.config,
                cell.seed_seq,
                cache_dir,
                cached,
                obs_spec(run_id, grid_name, cell.index),
            )
        )
        reader, writer = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_supervised_child, args=(writer, payload), daemon=True
        )
        try:
            process.start()
        except BaseException:
            reader.close()
            raise
        finally:
            # With the parent's copy of the write end closed, the pipe
            # hits EOF the moment the child dies, however it dies.
            writer.close()
        now = time.monotonic()
        deadline = (
            now + policy.cell_timeout_s
            if policy.cell_timeout_s is not None
            else None
        )
        running[reader] = _Running(
            cell=cell,
            process=process,
            conn=reader,
            started=now,
            deadline=deadline,
        )

    def attempt_span(cell: _Cell, wall_s: float, outcome: str) -> None:
        cell.report.wall_s += wall_s
        tracer.add_span(
            "guard.cell",
            wall_s,
            GUARD_TRACK,
            category="guard",
            index=cell.index,
            attempt=cell.attempt,
            outcome=outcome,
        )

    def merge(cell: _Cell, side: dict, track: str) -> None:
        """Fold a worker's *side* into the parent's instruments.

        Metrics and cache stats (present only on a result's side) merge
        into the registry and the parent cache; spans land on *track*,
        log events are attributed to the cell, and both are counted on
        the cell report, so a quarantined cell still shows how far it
        got.
        """
        trace_snap = side.get("trace", {})
        log_snap = side.get("logs", ())
        cell.report.n_spans += len(trace_snap.get("spans", ()))
        cell.report.n_log_events += len(log_snap)
        registry.merge_snapshot(side.get("metrics", ()))
        if side.get("cache") and parent_cache.enabled:
            parent_cache.stats.merge(side["cache"])
        tracer.merge_snapshot(trace_snap, prefix=track)
        runlog.merge_snapshot(log_snap, worker=cell.index)

    def note_rebuild(cell: _Cell) -> None:
        """An attempt's process was lost (crash or deadline kill)."""
        nonlocal max_workers
        report.pool_rebuilds += 1
        if registry.enabled:
            registry.counter("guard.pool_rebuilds").inc()
        if (
            report.pool_rebuilds > MAX_POOL_REBUILDS
            and not report.serial_fallback
        ):
            report.serial_fallback = True
            max_workers = 1
            if runlog.enabled:
                runlog.warning(
                    "guard.serial_fallback",
                    f"{report.pool_rebuilds} pool rebuilds exceeded the "
                    f"budget; degrading to one worker",
                )

    def retry_or_quarantine(cell: _Cell, kind: str, detail: str) -> None:
        """Schedule a transient retry, or hand down the final verdict."""
        cell.last_failure = kind
        if cell.attempt <= policy.retries:
            cell.report.retries += 1
            if registry.enabled:
                registry.counter("guard.retries").inc()
            delay = policy.backoff_s(cell.index, cell.attempt)
            cell.report.backoff_s = cell.report.backoff_s + (delay,)
            waiting.append((time.monotonic() + delay, cell.index, cell))
            waiting.sort(key=lambda item: (item[0], item[1]))
            if runlog.enabled:
                runlog.warning(
                    "guard.retry",
                    kind,
                    cell=cell.index,
                    attempt=cell.attempt,
                    backoff_s=delay,
                )
        else:
            status = (
                STATUS_TIMED_OUT if kind == "timeout" else STATUS_QUARANTINED
            )
            finalize(cell, status, error=detail)
            if runlog.enabled:
                runlog.error(
                    "guard.quarantine",
                    detail.strip().splitlines()[-1] if detail else "",
                    cell=cell.index,
                    status=status,
                    attempts=cell.attempt,
                )

    def handle_message(run: _Running) -> None:
        cell = run.cell
        try:
            message = run.conn.recv()
        except (EOFError, OSError):
            message = None
        wall = time.monotonic() - run.started
        _reap(run)
        if message is None:
            # Died without a word: os._exit, SIGKILL, interpreter abort.
            # Nothing to salvage — the buffers died unsent with the
            # process (the except-path flush only covers exceptions).
            exitcode = run.process.exitcode
            cell.report.crashes += 1
            attempt_span(cell, wall, "crash")
            if runlog.enabled:
                runlog.error(
                    "guard.crash",
                    f"exit code {exitcode}",
                    cell=cell.index,
                    attempt=cell.attempt,
                )
            note_rebuild(cell)
            retry_or_quarantine(
                cell,
                "crash",
                f"worker process for config {cell.config!r} died abruptly "
                f"(exit code {exitcode}) and exhausted its retries",
            )
            return
        if message[0] == "ok":
            _, cell.result, cell.side = message
            attempt_span(cell, wall, "ok")
            finalize(
                cell,
                STATUS_RETRIED if cell.report.retries else STATUS_OK,
            )
            if journal is not None:
                journal.record(
                    cell.key, cell.index, cell.config, cell.result, cell.side
                )
            return
        _, detail, verdict, side = message
        attempt_span(cell, wall, "error")
        # Merged now (a result's side merges post-grid in config order)
        # onto an attempt-suffixed track, so a retried cell's dead
        # attempts stay distinguishable from its final clean run.
        merge(cell, side, f"{worker_track(cell.index)}.a{cell.attempt}")
        if verdict == TRANSIENT:
            retry_or_quarantine(cell, "error", detail)
        else:
            finalize(cell, STATUS_QUARANTINED, error=detail)
            if runlog.enabled:
                runlog.error(
                    "guard.quarantine",
                    detail.strip().splitlines()[-1] if detail else "",
                    cell=cell.index,
                    status=STATUS_QUARANTINED,
                    attempts=cell.attempt,
                )

    def handle_deadline(run: _Running) -> None:
        cell = run.cell
        wall = time.monotonic() - run.started
        _reap(run, kill=True)
        cell.report.timeouts += 1
        if registry.enabled:
            registry.counter("guard.timeouts").inc()
        attempt_span(cell, wall, "timeout")
        if runlog.enabled:
            runlog.error(
                "guard.timeout",
                f"killed after {wall:.1f}s against a "
                f"{policy.cell_timeout_s:g}s deadline",
                cell=cell.index,
                attempt=cell.attempt,
            )
        note_rebuild(cell)
        retry_or_quarantine(
            cell,
            "timeout",
            f"worker for config {cell.config!r} exceeded the "
            f"{policy.cell_timeout_s:g}s cell deadline on every attempt",
        )

    # The parent context makes every supervisor-side log event (retry,
    # quarantine, crash, ...) carry the grid's deterministic run id.
    with trace_context(parent_ctx):
        try:
            while pending or waiting or running:
                now = time.monotonic()
                while waiting and waiting[0][0] <= now:
                    _, _, cell = waiting.pop(0)
                    pending.append(cell)
                while pending and len(running) < max_workers:
                    launch(pending.pop(0))

                bounds = [r.deadline for r in running.values() if r.deadline]
                if waiting:
                    bounds.append(waiting[0][0])
                now = time.monotonic()
                timeout = max(0.0, min(bounds) - now) if bounds else None

                if running:
                    ready = connection_wait(list(running), timeout=timeout)
                    for conn in ready:
                        handle_message(running.pop(conn))
                elif waiting:
                    # Nothing live, first retry still backing off: sleep it
                    # out.
                    time.sleep(max(0.0, waiting[0][0] - time.monotonic()))

                now = time.monotonic()
                for conn, run in list(running.items()):
                    if run.deadline is not None and run.deadline <= now:
                        handle_deadline(running.pop(conn))
        finally:
            for run in running.values():
                _reap(run, kill=True)

    # -- deterministic merge: config order, exactly like the serial path.
    # Every result's side (live or journalled) lands here, its buffers
    # on the cell{i}/... tracks, regardless of completion order.
    for cell in cells:
        merge(cell, cell.side, worker_track(cell.index))
    record_report(report)
    return [cell.result for cell in cells], report
