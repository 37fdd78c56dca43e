"""End-to-end supervisor tests: pathologies, determinism, resume.

Workers live at module top level so the ``spawn`` context can pickle
them by reference (the convention of ``tests/bench/test_parallel.py``).
Cross-attempt state lives in marker files — every retry runs in a
different process from the attempt that failed, so module globals do
not carry over.

Deadlines are generous (seconds) against a 600 s hang: the spawn
interpreter startup counts toward the cell deadline, and these tests
must not flake on a loaded CI box.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench.parallel import WorkerError, run_grid
from repro.guard import (
    GuardPolicy,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RETRIED,
    STATUS_TIMED_OUT,
    TransientError,
    run_supervised_grid,
)
from repro.guard.journal import GridJournal, cell_key
from repro.obs.metrics import collecting

# real worker pools, deadlines and kills: excluded from the
# `-m "not slow"` fast loop (docs/VERIFICATION.md).
pytestmark = pytest.mark.slow


# -- worker zoo ----------------------------------------------------------------


def _plain_worker(config, seed_seq):
    (n,) = config
    rng = np.random.default_rng(seed_seq)
    return float(n) * 10.0 + float(rng.random())


def _metric_worker(config, seed_seq):
    from repro.obs.metrics import get_registry

    (n,) = config
    registry = get_registry()
    registry.counter("test.cells").inc()
    registry.gauge("test.last_n").set(float(n))
    rng = np.random.default_rng(seed_seq)
    return float(n) + float(rng.random())


def _flaky_worker(config, seed_seq):
    n, marker_dir = config
    marker = Path(marker_dir) / f"flaky-{n}"
    if not marker.exists():
        marker.write_text("attempted")
        raise TransientError(f"transient glitch on {n}")
    return _plain_worker((n,), seed_seq)


def _kill_once_worker(config, seed_seq):
    n, marker_dir = config
    marker = Path(marker_dir) / f"kill-{n}"
    if not marker.exists():
        marker.write_text("attempted")
        os._exit(3)
    return _plain_worker((n,), seed_seq)


def _kill_once_slow_worker(config, seed_seq):
    # The calm (pre-marked) cells are still running when the doomed one
    # dies.
    n, marker_dir = config
    if (Path(marker_dir) / f"kill-{n}").exists():
        time.sleep(0.5)
    return _kill_once_worker(config, seed_seq)


def _pid_worker(config, seed_seq):
    return os.getpid()


def _pid_flaky_worker(config, seed_seq):
    n, marker_dir = config
    marker = Path(marker_dir) / f"pid-{n}"
    if not marker.exists():
        marker.write_text(str(os.getpid()))
        raise TransientError(f"transient glitch on {n}")
    return os.getpid()


def _hang_worker(config, seed_seq):
    time.sleep(600.0)
    return None  # pragma: no cover - always killed first


def _poison_worker(config, seed_seq):
    (n,) = config
    if n == 13:
        raise ValueError(f"poisoned config {n}")
    return _plain_worker((n,), seed_seq)


def _unpicklable_worker(config, seed_seq):
    return lambda: None  # functions defined here cannot cross the pipe


def _traced_failing_worker(config, seed_seq):
    # Emits a span and a log event *before* dying, so the partial
    # buffers must still come back over the pipe (satellite 1).
    from repro.obs import get_logger, get_tracer

    (n,) = config
    with get_tracer().span("doomed.setup", category="test"):
        get_logger().info("test.progress", n=n)
    raise ValueError(f"poisoned {n}")


# -- pathologies ---------------------------------------------------------------


def test_clean_grid_matches_serial_run():
    configs = [(n,) for n in (1, 2, 3)]
    expected = run_grid(_plain_worker, configs, jobs=1, seed=7)
    results, report = run_supervised_grid(
        _plain_worker, configs, policy=GuardPolicy(), jobs=2, seed=7
    )
    assert results == expected
    assert report.ok
    assert [c.status for c in report.cells] == [STATUS_OK] * 3
    assert report.total_retries == 0
    assert report.pool_rebuilds == 0


def test_workers_are_reused_across_cells():
    # No benchmark grid has more cells than jobs, so this is what pins
    # worker reuse against a slide back to one process per cell.
    configs = [(n,) for n in range(6)]
    results, report = run_supervised_grid(
        _pid_worker, configs, policy=GuardPolicy(), jobs=2, seed=0
    )
    assert report.ok
    assert len(set(results)) <= 2


def test_retry_runs_in_a_new_process(tmp_path):
    policy = GuardPolicy(retries=1, backoff_base_s=0.01, backoff_max_s=0.05)
    results, report = run_supervised_grid(
        _pid_flaky_worker, [(1, str(tmp_path))], policy=policy, seed=0
    )
    assert report.cells[0].status == STATUS_RETRIED
    failed_pid = int((tmp_path / "pid-1").read_text())
    assert results[0] != failed_pid


def test_transient_failure_is_retried(tmp_path):
    configs = [(1, str(tmp_path)), (2, str(tmp_path))]
    policy = GuardPolicy(retries=2, backoff_base_s=0.01, backoff_max_s=0.05)
    results, report = run_supervised_grid(
        _flaky_worker, configs, policy=policy, jobs=2, seed=0
    )
    assert all(r is not None for r in results)
    assert report.ok
    assert [c.status for c in report.cells] == [STATUS_RETRIED] * 2
    assert report.total_retries == 2
    assert report.total_crashes == 0
    # An error retry is not a pool rebuild: the process exited cleanly.
    assert report.pool_rebuilds == 0
    # The backoff actually taken matches the policy's seeded schedule.
    for cell in report.cells:
        assert cell.backoff_s == (policy.backoff_s(cell.index, 1),)


def test_abrupt_death_rebuilds_without_losing_siblings(tmp_path):
    # Only n=1 crashes: the calm cells find a pre-written marker and run
    # clean on their first attempt.
    calm = tmp_path / "calm"
    calm.mkdir()
    for n in (2, 3, 4):
        (calm / f"kill-{n}").write_text("pre-marked: runs clean")
    configs = [(1, str(tmp_path))] + [(n, str(calm)) for n in (2, 3, 4)]

    policy = GuardPolicy(retries=1, backoff_base_s=0.01, backoff_max_s=0.05)
    results, report = run_supervised_grid(
        _kill_once_worker, configs, policy=policy, jobs=2, seed=0
    )
    assert all(r is not None for r in results)
    assert report.ok
    assert report.cells[0].status == STATUS_RETRIED
    assert report.cells[0].crashes == 1
    assert [c.status for c in report.cells[1:]] == [STATUS_OK] * 3
    assert report.pool_rebuilds == 1
    assert report.total_crashes == 1


def test_hung_worker_is_killed_at_deadline():
    policy = GuardPolicy(cell_timeout_s=3.0, retries=0)
    start = time.monotonic()
    results, report = run_supervised_grid(
        _hang_worker, [(1,)], policy=policy, jobs=1, seed=0
    )
    elapsed = time.monotonic() - start
    assert results == [None]
    assert report.cells[0].status == STATUS_TIMED_OUT
    assert report.cells[0].timeouts == 1
    assert report.total_timeouts == 1
    assert report.pool_rebuilds == 1
    assert not report.ok
    # Killed at the deadline, not after the 600 s sleep.
    assert elapsed < 60.0


def test_permanent_failure_quarantined_on_first_attempt():
    configs = [(12,), (13,), (14,)]
    policy = GuardPolicy(retries=3, backoff_base_s=0.01)
    results, report = run_supervised_grid(
        _poison_worker, configs, policy=policy, jobs=2, seed=0
    )
    assert results[0] is not None and results[2] is not None
    assert results[1] is None
    cell = report.cells[1]
    assert cell.status == STATUS_QUARANTINED
    assert cell.attempts == 1  # permanent → no retry budget burned
    assert "poisoned config 13" in cell.error
    assert not report.ok
    assert [c.index for c in report.failed_cells()] == [1]


def test_unpicklable_result_is_permanent():
    results, report = run_supervised_grid(
        _unpicklable_worker, [(1,)], policy=GuardPolicy(retries=2), seed=0
    )
    assert results == [None]
    assert report.cells[0].status == STATUS_QUARANTINED
    assert report.cells[0].attempts == 1
    assert "not picklable" in report.cells[0].error


def test_serial_fallback_after_rebuild_budget(tmp_path):
    calm = tmp_path / "calm"
    calm.mkdir()
    for n in (2, 3):
        (calm / f"kill-{n}").write_text("runs clean")
    configs = [(1, str(tmp_path))] + [(n, str(calm)) for n in (2, 3)]
    policy = GuardPolicy(
        retries=1, backoff_base_s=0.01, max_pool_rebuilds=0
    )
    results, report = run_supervised_grid(
        _kill_once_worker, configs, policy=policy, jobs=2, seed=0
    )
    assert all(r is not None for r in results)
    assert report.serial_fallback
    assert report.pool_rebuilds == 1
    assert "[serial fallback]" in report.render()


def test_serial_fallback_while_siblings_run(tmp_path):
    # The crash drops the pool to one worker while two siblings are
    # still running and the retry backs off: the supervisor must wait
    # them out, not tear the grid down.
    calm = tmp_path / "calm"
    calm.mkdir()
    for n in (2, 3):
        (calm / f"kill-{n}").write_text("runs clean")
    configs = [(1, str(tmp_path))] + [(n, str(calm)) for n in (2, 3)]
    policy = GuardPolicy(retries=1, max_pool_rebuilds=0)
    results, report = run_supervised_grid(
        _kill_once_slow_worker, configs, policy=policy, jobs=3, seed=0
    )
    assert all(r is not None for r in results)
    assert report.serial_fallback


# -- strict mode through run_grid ----------------------------------------------


def test_strict_guard_raises_with_partial_results():
    configs = [(12,), (13,), (14,)]
    policy = GuardPolicy(retries=0, strict=True)
    with pytest.raises(WorkerError) as excinfo:
        run_grid(_poison_worker, configs, jobs=2, seed=0, guard=policy)
    err = excinfo.value
    assert err.config == (13,)
    assert "poisoned config 13" in err.detail
    assert len(err.failures) == 1
    assert err.failures[0][0] == (13,)
    assert err.results[1] is None
    assert err.results[0] is not None and err.results[2] is not None


def test_non_strict_guard_returns_none_placeholders():
    configs = [(12,), (13,)]
    results = run_grid(
        _poison_worker,
        configs,
        jobs=1,
        seed=0,
        guard=GuardPolicy(retries=0),
    )
    assert results[0] is not None
    assert results[1] is None


# -- journal + resume ----------------------------------------------------------


def test_resume_serves_journal_and_matches_clean_run(tmp_path):
    configs = [(n,) for n in (1, 2, 3, 4)]
    seed = 11

    with collecting() as clean_registry:
        clean = run_grid(_metric_worker, configs, jobs=1, seed=seed)
    clean_snapshot = clean_registry.snapshot()

    journal_dir = tmp_path / "journal"
    with collecting() as first_registry:
        first, first_report = run_supervised_grid(
            _metric_worker,
            configs,
            policy=GuardPolicy(journal_dir=journal_dir),
            jobs=2,
            seed=seed,
            registry=first_registry,
        )
    assert first == clean
    assert first_registry.snapshot() == clean_snapshot
    assert first_report.journal_hits == 0
    assert len(GridJournal(journal_dir)) == 4

    # Resume: every cell served from the journal, zero processes spawned,
    # results AND merged metrics bit-identical to the clean serial run.
    with collecting() as resumed_registry:
        resumed, resumed_report = run_supervised_grid(
            _metric_worker,
            configs,
            policy=GuardPolicy(
                retries=0, journal_dir=journal_dir, resume=True
            ),
            jobs=2,
            seed=seed,
            registry=resumed_registry,
        )
    assert resumed == clean
    assert resumed_registry.snapshot() == clean_snapshot
    assert resumed_report.journal_hits == 4
    assert all(c.from_journal for c in resumed_report.cells)
    assert all(c.attempts == 0 for c in resumed_report.cells)


def test_resume_executes_only_missing_cells(tmp_path):
    configs = [(n,) for n in (1, 2, 3, 4)]
    seed = 5
    journal_dir = tmp_path / "journal"
    full, _ = run_supervised_grid(
        _plain_worker,
        configs,
        policy=GuardPolicy(journal_dir=journal_dir),
        jobs=2,
        seed=seed,
    )

    # Simulate a mid-grid kill: cell 2's journal entry never landed.
    missing = cell_key(_plain_worker, seed, 2, configs[2])
    (journal_dir / f"cell-{missing}.npz").unlink()

    resumed, report = run_supervised_grid(
        _plain_worker,
        configs,
        policy=GuardPolicy(journal_dir=journal_dir, resume=True),
        jobs=2,
        seed=seed,
    )
    assert resumed == full
    assert report.journal_hits == 3
    executed = [c.index for c in report.cells if c.attempts]
    assert executed == [2]
    # The re-run repaired the journal: a second resume is all hits.
    _, second = run_supervised_grid(
        _plain_worker,
        configs,
        policy=GuardPolicy(journal_dir=journal_dir, resume=True),
        jobs=1,
        seed=seed,
    )
    assert second.journal_hits == 4


def test_journal_key_miss_on_changed_seed(tmp_path):
    configs = [(1,)]
    journal_dir = tmp_path / "journal"
    run_supervised_grid(
        _plain_worker,
        configs,
        policy=GuardPolicy(journal_dir=journal_dir),
        seed=0,
    )
    # Same grid, different seed: the journal must not serve stale cells.
    _, report = run_supervised_grid(
        _plain_worker,
        configs,
        policy=GuardPolicy(journal_dir=journal_dir, resume=True),
        seed=1,
    )
    assert report.journal_hits == 0
    assert report.cells[0].attempts == 1


# -- observability -------------------------------------------------------------


def test_guard_counters_account_for_events(tmp_path):
    calm = tmp_path / "calm"
    calm.mkdir()
    (calm / "kill-2").write_text("runs clean")
    configs = [(1, str(tmp_path)), (2, str(calm))]
    with collecting() as registry:
        run_supervised_grid(
            _kill_once_worker,
            configs,
            policy=GuardPolicy(retries=1, backoff_base_s=0.01),
            jobs=2,
            seed=0,
            registry=registry,
        )
    by_name = {e["name"]: e for e in registry.snapshot()}
    assert by_name["guard.retries"]["value"] == 1
    assert by_name["guard.pool_rebuilds"]["value"] == 1
    assert "guard.timeouts" not in by_name  # no deadline was hit
    assert "guard.quarantined" not in by_name


# -- partial observability on failure ------------------------------------------


def test_failed_cell_ships_partial_observability():
    from repro import obs

    configs = [(1,), (2,)]
    with obs.tracing() as tracer, obs.logging() as runlog:
        results, report = run_supervised_grid(
            _traced_failing_worker,
            configs,
            policy=GuardPolicy(retries=0),
            jobs=2,
            seed=0,
        )
    assert results == [None, None]
    assert not report.ok
    # The failing attempts' buffers were flushed before the error was
    # reported, counted onto the cell reports...
    for cell in report.cells:
        assert cell.status == STATUS_QUARANTINED
        assert cell.n_spans >= 1
        assert cell.n_log_events >= 1
    # ...and merged under attempt-qualified cell tracks.
    doomed_tracks = {
        s.track for s in tracer.spans if s.name == "doomed.setup"
    }
    assert len(doomed_tracks) == 2
    for track in doomed_tracks:
        cell, _, rest = track.partition(".")
        assert cell in {"cell0", "cell1"}
        assert rest.startswith("a")
    # The worker's own log events carry their cell index, and the
    # supervisor logged the quarantine verdicts alongside them.
    progress = [e for e in runlog.events if e.event == "test.progress"]
    assert sorted(e.worker for e in progress) == [0, 1]
    assert all(e.run_id for e in progress)
    quarantines = [
        e for e in runlog.events if e.event == "guard.quarantine"
    ]
    assert len(quarantines) == 2
    assert all(e.level == "error" for e in quarantines)


def test_observability_off_ships_nothing():
    # With instruments disabled nothing is counted: the disabled path
    # records no buffers at all (null-object contract end to end).
    results, report = run_supervised_grid(
        _plain_worker, [(1,)], policy=GuardPolicy(), jobs=2, seed=0
    )
    assert results[0] is not None
    assert report.cells[0].n_spans == 0
    assert report.cells[0].n_log_events == 0
