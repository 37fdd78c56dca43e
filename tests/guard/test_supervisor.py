"""End-to-end supervisor tests: pathologies, determinism, resume.

Workers live at module top level so they pickle by reference into the
forked attempt processes (the convention of
``tests/bench/test_parallel.py``).  Cross-attempt state lives in marker
files — every attempt runs in a process of its own, so module globals
do not carry over.

Deadlines are generous (seconds) against a 600 s hang: a cell's
deadline starts once its process has been forked, and these tests must
not flake on a loaded CI box.
"""

import os
import subprocess
import sys
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
from repro.guard import supervisor
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


_APPENDED = []


def _append_worker(config, seed_seq):
    _APPENDED.append(config)
    return len(_APPENDED)


_CELL_STATE = "import time"


def _module_state_worker(config, seed_seq):
    return _CELL_STATE


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


def _observed_worker(config, seed_seq):
    from repro.obs import get_logger, get_registry, get_tracer

    (n,) = config
    with get_tracer().span("test.cell", category="test", n=n):
        get_logger().info("test.cell", n=n)
        get_registry().counter("test.cells").inc()
    return _plain_worker(config, seed_seq)


def _flaky_observed_worker(config, seed_seq):
    from repro.obs import get_registry, get_tracer

    get_registry().counter("test.attempts").inc()
    with get_tracer().span("test.attempt", category="test"):
        pass
    return _flaky_worker(config, seed_seq)


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


def test_cells_do_not_see_each_others_module_state():
    # More cells than jobs: a process that ran one cell and then took
    # another would return 2 or more here.
    configs = [(n,) for n in range(6)]
    results, report = run_supervised_grid(
        _append_worker, configs, policy=GuardPolicy(), jobs=2, seed=0
    )
    assert report.ok
    assert results == [1] * 6


@pytest.mark.parametrize("jobs", [1, 2])
def test_cells_read_the_parents_module_state(jobs, monkeypatch):
    # Attempts fork from the grid's own process, so a value patched
    # before the grid reaches a jobs=2 cell just as it reaches an
    # in-process jobs=1 cell.
    monkeypatch.setattr(sys.modules[__name__], "_CELL_STATE", "patched")
    results = run_grid(
        _module_state_worker, [(n,) for n in range(3)], jobs=jobs
    )
    assert results == ["patched"] * 3


_SCRIPT = """\
import sys
from pathlib import Path

from repro.bench.parallel import run_grid

with Path(sys.argv[1]).open("a") as marker:
    marker.write("top level\\n")


def square(config, seed_seq):
    return config * config


if __name__ == "__main__":
    assert run_grid(square, [1, 2, 3, 4], jobs=2) == [1, 4, 9, 16]
"""


def test_script_started_by_path_runs_its_top_level_once(tmp_path):
    # A worker defined in a script run by path pickles as __main__.square;
    # the attempts fork from the script's process, so none of them
    # re-runs the script's top level to find it.
    script = tmp_path / "grid_script.py"
    script.write_text(_SCRIPT)
    marker = tmp_path / "marker.txt"
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ),
    )
    subprocess.run(
        [sys.executable, str(script), str(marker)],
        env=env,
        check=True,
        timeout=120,
    )
    assert marker.read_text().splitlines() == ["top level"]


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


def test_serial_fallback_after_rebuild_budget(tmp_path, monkeypatch):
    monkeypatch.setattr(supervisor, "MAX_POOL_REBUILDS", 0)
    calm = tmp_path / "calm"
    calm.mkdir()
    for n in (2, 3):
        (calm / f"kill-{n}").write_text("runs clean")
    configs = [(1, str(tmp_path))] + [(n, str(calm)) for n in (2, 3)]
    policy = GuardPolicy(retries=1, backoff_base_s=0.01)
    results, report = run_supervised_grid(
        _kill_once_worker, configs, policy=policy, jobs=2, seed=0
    )
    assert all(r is not None for r in results)
    assert report.serial_fallback
    assert report.pool_rebuilds == 1
    assert "[serial fallback]" in report.render()


def test_serial_fallback_while_siblings_run(tmp_path, monkeypatch):
    # The crash drops the pool to one worker while two siblings are
    # still running and the retry backs off: the supervisor must wait
    # them out, not tear the grid down.
    monkeypatch.setattr(supervisor, "MAX_POOL_REBUILDS", 0)
    calm = tmp_path / "calm"
    calm.mkdir()
    for n in (2, 3):
        (calm / f"kill-{n}").write_text("runs clean")
    configs = [(1, str(tmp_path))] + [(n, str(calm)) for n in (2, 3)]
    policy = GuardPolicy(retries=1)
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


def test_resume_replays_journalled_buffers(tmp_path):
    from repro import obs

    configs = [(n,) for n in (1, 2, 3)]
    journal_dir = tmp_path / "journal"

    def run(resume):
        with obs.tracing() as tracer, obs.logging() as runlog, \
                collecting() as registry:
            _, report = run_supervised_grid(
                _observed_worker,
                configs,
                policy=GuardPolicy(journal_dir=journal_dir, resume=resume),
                jobs=2,
                seed=3,
            )
        spans = [
            (s.track, s.name, s.category, s.depth, s.start_s, s.duration_s)
            for s in tracer.spans
            if s.track.startswith("cell")
        ]
        events = [
            (e.event, e.worker, e.run_id, e.seq, e.time_s, e.fields)
            for e in runlog.events
            if e.event.startswith("test.")
        ]
        counts = [(c.n_spans, c.n_log_events) for c in report.cells]
        return report, (spans, events, counts, registry.snapshot())

    live_report, live = run(resume=False)
    resumed_report, resumed = run(resume=True)
    assert live_report.journal_hits == 0
    assert resumed_report.journal_hits == len(configs)
    spans, events, counts, _ = live
    assert len(spans) == len(events) == len(configs)
    assert counts == [(1, 1)] * len(configs)
    assert resumed == live


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


def test_failed_attempt_ships_buffers_but_not_metrics(tmp_path):
    from repro import obs

    configs = [(n, str(tmp_path)) for n in (1, 2)]
    policy = GuardPolicy(retries=1, backoff_base_s=0.01, backoff_max_s=0.05)
    with obs.tracing() as tracer, collecting() as registry:
        _, report = run_supervised_grid(
            _flaky_observed_worker, configs, policy=policy, jobs=2, seed=0
        )
    assert report.ok
    by_name = {e["name"]: e for e in registry.snapshot()}
    assert by_name["test.attempts"]["value"] == len(configs)
    tracks = sorted(s.track for s in tracer.spans if s.name == "test.attempt")
    assert tracks == sorted(
        f"cell{i}{attempt}/host"
        for i in range(len(configs))
        for attempt in (".a1", "")
    )
    assert [c.n_spans for c in report.cells] == [2] * len(configs)


def test_observability_off_ships_nothing():
    # With instruments disabled nothing is counted: the disabled path
    # records no buffers at all (null-object contract end to end).
    results, report = run_supervised_grid(
        _plain_worker, [(1,)], policy=GuardPolicy(), jobs=2, seed=0
    )
    assert results[0] is not None
    assert report.cells[0].n_spans == 0
    assert report.cells[0].n_log_events == 0
