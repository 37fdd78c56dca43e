"""The supervised worker pool: every multi-process grid runs here.

The supervisor owns its ``spawn`` worker processes directly, each with
a private duplex pipe, so the watchdog can kill exactly the hung cell,
an ``os._exit`` loses exactly one attempt, and siblings never observe
each other's deaths.

Worker lifecycle
----------------

A worker loops over ``(worker, config, seed_seq, cache_dir, obs_spec)``
tasks, running each through one cell body with a fresh metric
registry, compilation cache and observability.  It is reused only
after it delivered a result; after an error, a crash or a deadline kill
it is retired, so a retry never runs in the process whose attempt
failed.  An idle worker with no pending cell to take is told to exit
at once (its pipe is closed), so its teardown overlaps the siblings'
remaining work; a retry that wakes from its backoff later gets a fresh
worker.

Event loop
----------

The parent multiplexes all live workers with
:func:`multiprocessing.connection.wait`, bounded by the nearest of (a)
a running cell's deadline and (b) a backed-off retry's wake time.  An
attempt ends in one of four ways:

* **result** — the worker sent ``("ok", result, metrics, cache_stats,
  trace, logs)``, the last two being its tracer/log snapshots
  (:mod:`repro.obs.propagate`);
* **failure** — it sent ``("error", traceback, verdict, trace, logs)``
  with the transient/permanent verdict classified worker-side
  (:func:`repro.guard.policy.classify_exception`) and whatever
  observability the attempt flushed before dying;
* **crash** — the pipe hit EOF without a message (``os._exit``, OOM
  kill, interpreter abort): the dead process is replaced and the cell
  retried as a transient failure;
* **deadline** — the watchdog ``terminate()``-s the process and the
  cell is retried; a cell whose *last* failure was a deadline kill is
  reported ``timed_out`` rather than ``quarantined``.

Every worker lost to a crash or a deadline kill counts as a pool
rebuild (retiring one after an error does not); past
:attr:`GuardPolicy.max_pool_rebuilds` the supervisor degrades to serial
execution (one live worker) for the remaining cells, bounding the blast
radius of a misbehaving environment.

Determinism
-----------

Results, metric merges, cache-stat merges and trace/log buffer merges
are applied in config order after the grid completes — identical to the
serial runner — and each cell's seed comes from the same
``SeedSequence.spawn`` walk, so a supervised run's results are bitwise
equal to a clean serial run regardless of retries, kills or worker
count.  Worker span buffers land on ``cell{i}/...`` tracks under the
grid's deterministic run id (:func:`repro.obs.context.derive_run_id`);
the journal stores each cell's buffers, so ``--resume`` rebuilds the
merged timeline bit-identically.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Sequence

import numpy as np

from repro.cache import CompilationCache, caching, get_cache
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
from repro.obs.log import get_logger
from repro.obs.metrics import MetricRegistry, collecting, get_registry
from repro.obs.propagate import obs_spec, worker_observability
from repro.obs.tracer import get_tracer

__all__ = ["GUARD_TRACK", "run_supervised_grid"]

#: Virtual trace track carrying one ``guard.cell`` span per attempt.
GUARD_TRACK = "guard"

#: How long to wait for a retired (or terminated) worker to actually
#: exit before escalating to SIGKILL.
_JOIN_GRACE_S = 10.0


def _run_cell(
    worker: Callable,
    config: Any,
    seed_seq: np.random.SeedSequence,
    cache_dir: str | None,
    spec: dict | None,
) -> tuple:
    """Run one attempt and build the message the supervisor expects.

    The cell gets a fresh metric registry, compilation cache (sharing
    the grid's disk directory) and per-cell observability from *spec*.
    Failures are classified while the live exception object is still in
    hand — the verdict crosses the process boundary, the exception type
    does not have to — and the trace/log buffers ride along on the
    failure path too, so whatever a dying attempt recorded reaches the
    supervisor.
    """
    cache = (
        CompilationCache(path=cache_dir)
        if cache_dir is not None
        else CompilationCache()
    )
    tracer, runlog = None, None
    try:
        with collecting() as registry, caching(cache), \
                worker_observability(spec) as (tracer, runlog):
            result = worker(config, seed_seq)
        return (
            "ok",
            result,
            registry.snapshot(),
            cache.stats.as_dict(),
            tracer.snapshot(),
            runlog.snapshot(),
        )
    except Exception as exc:
        return (
            "error",
            traceback.format_exc(),
            classify_exception(exc),
            tracer.snapshot() if tracer is not None else {},
            runlog.snapshot() if runlog is not None else [],
        )


def _supervised_child(conn: Connection) -> None:
    """Child entry point: run tasks from *conn* until it is closed.

    Each task is ``(worker, config, seed_seq, cache_dir, spec)`` and
    gets exactly one message back.  The supervisor closes its end of the
    pipe to retire the worker; the resulting EOF is the signal to exit.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        message = _run_cell(*task)
        try:
            conn.send(message)
        except Exception:
            # The result itself would not pickle: that is deterministic,
            # so report it as a permanent failure rather than crashing
            # (which would be retried pointlessly).  Both message shapes
            # end with the trace and log buffers.
            try:
                conn.send(
                    (
                        "error",
                        f"result for config {task[1]!r} is not picklable:\n"
                        f"{traceback.format_exc()}",
                        PERMANENT,
                        message[-2],
                        message[-1],
                    )
                )
            except Exception:
                return


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
    metrics: list = field(default_factory=list)
    cache_stats: dict | None = None
    trace: dict = field(default_factory=dict)  # successful attempt's spans
    logs: list = field(default_factory=list)  # successful attempt's events
    done: bool = False
    last_failure: str = ""  # "error" | "crash" | "timeout"


@dataclass
class _Child:
    """One worker process and the supervisor's end of its pipe."""

    process: Any
    conn: Connection


@dataclass
class _Running:
    """A worker executing one attempt of one cell."""

    cell: _Cell
    child: _Child
    started: float
    deadline: float | None


def _join(process: Any) -> None:
    """Wait for *process* to exit, escalating to SIGKILL after a grace."""
    process.join(_JOIN_GRACE_S)
    if process.is_alive():
        process.kill()
        process.join(_JOIN_GRACE_S)


def run_supervised_grid(
    worker: Callable,
    configs: Sequence[Any],
    *,
    policy: GuardPolicy,
    jobs: int = 1,
    seed: int = 0,
    cache_dir=None,
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
    if cache_dir is None and parent_cache.enabled:
        cache_dir = parent_cache.path
    cache_dir = str(cache_dir) if cache_dir is not None else None

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
                cell.metrics = entry.metrics
                cell.cache_stats = entry.cache_stats
                # The journalled trace/log buffers replay through the
                # same post-grid merge as a live worker's, which is
                # what makes a resumed timeline bit-identical.
                cell.trace = entry.trace
                cell.logs = entry.logs
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
    idle: list[_Child] = []  # delivered a result, ready for another cell
    retired: list[_Child] = []  # told to exit; joined after the grid
    ctx = get_context("spawn")
    max_workers = max(1, min(jobs, len(pending) or 1))

    def finalize(cell: _Cell, status: str, error: str | None = None) -> None:
        cell.done = True
        cell.report.status = status
        cell.report.error = error
        if status in (STATUS_QUARANTINED, STATUS_TIMED_OUT):
            if registry.enabled:
                registry.counter("guard.quarantined").inc()

    def spawn() -> _Child:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_supervised_child, args=(child_conn,), daemon=True
        )
        proc.start()
        # Close the parent's copy of the child's end: the pipe then hits
        # EOF the moment the child dies, however it dies.
        child_conn.close()
        return _Child(process=proc, conn=parent_conn)

    def retire(child: _Child, kill: bool = False) -> None:
        """Tell *child* to exit (closing its pipe), or kill it."""
        if kill and child.process.is_alive():
            child.process.terminate()
        child.conn.close()
        retired.append(child)

    def launch(cell: _Cell) -> None:
        cell.attempt += 1
        cell.report.attempts = cell.attempt
        child = idle.pop() if idle else spawn()
        now = time.monotonic()
        deadline = (
            now + policy.cell_timeout_s
            if policy.cell_timeout_s is not None
            else None
        )
        # Registered before the send, so a task that fails to pickle
        # leaves the worker where the exit path kills and joins it.
        running[child.conn] = _Running(
            cell=cell, child=child, started=now, deadline=deadline
        )
        task = (
            worker,
            cell.config,
            cell.seed_seq,
            cache_dir,
            obs_spec(run_id, grid_name, cell.index),
        )
        try:
            child.conn.send(task)
        except OSError:
            pass  # died while idle: wait() sees the EOF, a crash

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

    def absorb_failed_buffers(
        cell: _Cell, trace_snap: dict, log_snap: list
    ) -> None:
        """Keep what a failing attempt flushed before it died.

        Merged immediately (successful attempts merge post-grid in
        config order) onto an attempt-suffixed track — a retried cell's
        dead attempts stay distinguishable from its final clean run —
        and counted on the cell report, so a quarantined cell still
        shows how far it got.
        """
        cell.report.n_spans += len(trace_snap.get("spans", ()))
        cell.report.n_log_events += len(log_snap)
        prefix = f"{worker_track(cell.index)}.a{cell.attempt}"
        tracer.merge_snapshot(trace_snap, prefix=prefix)
        runlog.merge_snapshot(log_snap, worker=cell.index)

    def note_rebuild(cell: _Cell) -> None:
        """A worker process was lost (crash or deadline kill)."""
        nonlocal max_workers
        report.pool_rebuilds += 1
        if registry.enabled:
            registry.counter("guard.pool_rebuilds").inc()
        if (
            report.pool_rebuilds > policy.max_pool_rebuilds
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
            message = run.child.conn.recv()
        except (EOFError, OSError):
            message = None
        wall = time.monotonic() - run.started
        if message is not None and message[0] == "ok":
            idle.append(run.child)
        else:
            retire(run.child)
        if message is None:
            # Died without a word: os._exit, SIGKILL, interpreter abort.
            # Nothing to salvage — the buffers died unsent with the
            # process (the except-path flush only covers exceptions).
            _join(run.child.process)
            exitcode = run.child.process.exitcode
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
            _, result, metrics, cache_stats, trace_snap, log_snap = message
            cell.result = result
            cell.metrics = metrics
            cell.cache_stats = cache_stats
            cell.trace = trace_snap
            cell.logs = log_snap
            cell.report.n_spans += len(trace_snap.get("spans", ()))
            cell.report.n_log_events += len(log_snap)
            attempt_span(cell, wall, "ok")
            finalize(
                cell,
                STATUS_RETRIED if cell.report.retries else STATUS_OK,
            )
            if journal is not None:
                journal.record(
                    cell.key,
                    cell.index,
                    cell.config,
                    result,
                    metrics,
                    cache_stats,
                    trace=trace_snap,
                    logs=log_snap,
                )
            return
        _, detail, verdict, trace_snap, log_snap = message
        attempt_span(cell, wall, "error")
        absorb_failed_buffers(cell, trace_snap, log_snap)
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
        retire(run.child, kill=True)
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
                # A worker left with nothing to run exits now, its
                # teardown overlapping the siblings' work.
                while idle:
                    retire(idle.pop())

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
                retire(run.child, kill=True)
            for child in idle:
                retire(child)
            for child in retired:
                _join(child.process)

    # -- deterministic merge: config order, exactly like the serial path.
    # Successful cells' trace/log buffers (live or journalled) land on
    # their cell{i}/... tracks here, regardless of completion order.
    results: list[Any] = []
    for cell in cells:
        results.append(cell.result)
        if cell.metrics:
            registry.merge_snapshot(cell.metrics)
        if cell.cache_stats and parent_cache.enabled:
            parent_cache.stats.merge(cell.cache_stats)
        if cell.trace:
            tracer.merge_snapshot(
                cell.trace, prefix=worker_track(cell.index)
            )
        if cell.logs:
            runlog.merge_snapshot(cell.logs, worker=cell.index)
        if cell.report.from_journal:
            cell.report.n_spans += len(cell.trace.get("spans", ()))
            cell.report.n_log_events += len(cell.logs)
    record_report(report)
    return results, report
