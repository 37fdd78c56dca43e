"""Chaos harness: drive the simulator and trainer through injected faults.

This module glues the fault subsystem (:mod:`repro.faults`) together
into runnable experiments over the compiler, the executor, the trainer
and the supervised grid runner:

* :func:`chaos_execute` — run a compiled-graph estimate under a
  :class:`~repro.faults.plan.FaultPlan`, recovering permanent tile
  deaths by recompiling onto the surviving tile set
  (``compile_graph(..., exclude_tiles=...)``) and re-executing.
* :func:`kill_resume_check` — train, kill mid-epoch, resume from the
  checkpoint, and verify the result is bit-identical to an
  uninterrupted run.
* :func:`degraded_tile_sweep` — the headline robustness number: how many
  dead tiles each Table 4 parameterisation survives before the shrunk
  SRAM genuinely cannot hold it (compressed models survive far more).
* :func:`run_chaos` — the ``python -m repro chaos`` driver: all of the
  above plus a replay-determinism double-run (identical
  :class:`~repro.faults.injector.FaultReport`\\ s *and* identical
  simulated-IPU trace timelines for the same seed).
"""

from __future__ import annotations

import os
import pathlib
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.bench.parallel import run_grid
from repro.bench.reporting import Table
from repro.guard import GuardPolicy, TransientError, run_supervised_grid
from repro.experiments.config import shl_model
from repro.faults.checkpoint import CheckpointManager
from repro.faults.injector import (
    FaultInjector,
    FaultReport,
    PermanentTileFault,
    UnrecoveredFaultError,
)
from repro.faults.plan import (
    EXCHANGE_CORRUPTION,
    HOST_STALL,
    LINK_DROP,
    PERMANENT_TILE,
    TRANSIENT_COMPUTE,
    FaultEvent,
    FaultPlan,
)
from repro.ipu.compiler import IPUOutOfMemoryError, compile_graph
from repro.ipu.executor import ExecutionReport, Executor
from repro.ipu.machine import GC200, IPUSpec
from repro.ipu.multi import M2000, allreduce_time
from repro.ipu.poptorch import lower_model
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.optim import SGD
from repro.nn.trainer import Trainer
from repro.utils import format_seconds

__all__ = [
    "ChaosResult",
    "chaos_execute",
    "check_scenario",
    "default_plan",
    "kill_resume_check",
    "guard_grid_check",
    "degraded_tile_sweep",
    "max_dead_tiles",
    "run_chaos",
    "SCENARIOS",
]


#: :func:`chaos_execute` gives up after this many degraded recompiles.
MAX_RECOMPILES = 16
#: :func:`kill_resume_check` checkpoints every this many steps.
CHECKPOINT_EVERY = 5
#: Worker processes of :func:`guard_grid_check`'s supervised grid.
GUARD_JOBS = 4


# -- executor chaos -----------------------------------------------------------


@dataclass
class ChaosResult:
    """Outcome of one fault-injected execution."""

    report: ExecutionReport | None
    faults: FaultReport
    excluded_tiles: frozenset[int]
    recompiles: int
    error: str | None

    @property
    def ok(self) -> bool:
        """Run completed and every injected fault was recovered."""
        return (
            self.error is None
            and self.report is not None
            and self.faults.n_fatal == 0
        )


def chaos_execute(
    graph,
    spec: IPUSpec,
    plan: FaultPlan,
    injector: FaultInjector | None = None,
) -> ChaosResult:
    """Estimate *graph* on *spec* while *plan*'s faults fire.

    Transient faults recover inside the executor (adding retry time to
    the step timings); a :class:`PermanentTileFault` aborts the
    execution, the graph is recompiled with the dead tile excluded, and
    the program re-executes from the top — the fault ledger deduplicates
    re-observed faults so the final report counts each injected fault
    once.  The run is declared failed (``error``) when the shrunk SRAM
    can no longer hold the graph, a transient fault exhausts its retry
    budget, or :data:`MAX_RECOMPILES` is hit.
    """
    if injector is None:
        injector = FaultInjector(plan)
    excluded: frozenset[int] = frozenset()
    recompiles = 0
    report: ExecutionReport | None = None
    error: str | None = None
    pending: FaultEvent | None = None
    while True:
        try:
            compiled = compile_graph(
                graph, spec, exclude_tiles=excluded or None
            )
        except IPUOutOfMemoryError as exc:
            error = str(exc)
            break
        if pending is not None:
            # The recompile that excludes the dead tile IS the recovery.
            injector.record_recovered(pending, retries=1)
            pending = None
        executor = Executor(compiled, injector=injector)
        try:
            report = executor.estimate()
        except PermanentTileFault as fault:
            if recompiles >= MAX_RECOMPILES:
                error = (
                    f"gave up after {MAX_RECOMPILES} recompiles "
                    f"(last dead tile: {fault.tile})"
                )
                break
            excluded = excluded | {fault.tile}
            recompiles += 1
            pending = fault.event
            continue
        except UnrecoveredFaultError as exc:
            error = str(exc)
            break
        break
    return ChaosResult(
        report=report,
        faults=injector.report(),
        excluded_tiles=excluded,
        recompiles=recompiles,
        error=error,
    )


def default_plan(seed: int, program) -> FaultPlan:
    """A plan exercising every recoverable fault kind against *program*.

    Scheduled events pin one fault of each kind to a step of the right
    kind (so each fires deterministically); low probabilistic rates add
    seed-dependent extras on top.
    """
    compute_steps = [
        i for i, s in enumerate(program) if s.kind == "compute"
    ]
    host_steps = [
        i
        for i, s in enumerate(program)
        if s.kind in ("host_write", "host_read")
    ]
    if not compute_steps:
        raise ValueError("program has no compute steps to fault")
    events = [
        FaultEvent(
            TRANSIENT_COMPUTE, step=compute_steps[0], tile=3, severity=2
        ),
        FaultEvent(
            EXCHANGE_CORRUPTION,
            step=compute_steps[len(compute_steps) // 2],
            tile=5,
        ),
        FaultEvent(PERMANENT_TILE, step=compute_steps[-1], tile=11),
        FaultEvent(LINK_DROP, step=0),
    ]
    if host_steps:
        events.append(
            FaultEvent(HOST_STALL, step=host_steps[0], severity=2)
        )
    return FaultPlan(
        seed=seed,
        events=tuple(events),
        rates=(
            (TRANSIENT_COMPUTE, 0.02),
            (EXCHANGE_CORRUPTION, 0.02),
        ),
    )


def recover_link_drops(
    plan: FaultPlan,
    injector: FaultInjector,
    nbytes: int,
) -> list[tuple[FaultEvent, float, float]]:
    """Recover the plan's ``link_drop`` events over the surviving link.

    For each scheduled link drop the ring all-reduce is retried as a
    chain over the surviving direction (see
    :func:`repro.ipu.multi.allreduce_time`); the extra time over the
    healthy collective is ledgered as that fault's recovery cost.  The
    collective runs on an :data:`~repro.ipu.multi.M2000`.  Returns
    ``(event, healthy_s, degraded_s)`` triples.
    """
    out = []
    for event in plan.events:
        if event.kind != LINK_DROP:
            continue
        healthy = allreduce_time(M2000, nbytes)
        degraded = allreduce_time(M2000, nbytes, failed_links=1)
        injector.record_recovered(
            event, retries=1, retry_s=degraded - healthy
        )
        out.append((event, healthy, degraded))
    return out


# -- kill/resume --------------------------------------------------------------


class _Killed(Exception):
    """Simulated process death inside the training loop."""


def kill_resume_check(
    seed: int = 0,
    epochs: int = 3,
    kill_after_steps: int = 17,
    dim: int = 64,
    n_samples: int = 240,
) -> dict:
    """Train, kill after *kill_after_steps* steps, resume, compare.

    Returns a dict with ``bit_identical`` (losses, accuracies and final
    parameters all byte-equal to an uninterrupted same-seed run),
    ``resumed_from_step`` and the per-run histories.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 77]))
    x = rng.normal(size=(n_samples, dim)).astype(np.float64)
    y = rng.integers(0, 4, size=n_samples)
    dataset = ArrayDataset(x, y)

    def build():
        model = shl_model("Butterfly", dim=dim, n_classes=4, seed=seed)
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        train = DataLoader(dataset, batch_size=16, seed=seed + 1)
        val = DataLoader(dataset, batch_size=16, seed=seed + 2)
        return Trainer(model, opt), train, val

    # Uninterrupted reference.
    ref_trainer, train, val = build()
    ref = ref_trainer.fit(train, val, epochs=epochs)

    tmp = tempfile.mkdtemp(prefix="repro-chaos-ckpt-")
    try:
        manager = CheckpointManager(tmp, keep=3)
        killed_trainer, train, val = build()
        inner = killed_trainer.train_step
        count = [0]

        def dying_step(x, y):
            if count[0] == kill_after_steps:
                raise _Killed()
            count[0] += 1
            return inner(x, y)

        killed_trainer.train_step = dying_step
        killed = False
        try:
            killed_trainer.fit(
                train,
                val,
                epochs=epochs,
                checkpoint=manager,
                checkpoint_every=CHECKPOINT_EVERY,
            )
        except _Killed:
            killed = True

        resumed_trainer, train, val = build()
        resumed = resumed_trainer.fit(
            train,
            val,
            epochs=epochs,
            checkpoint=manager,
            checkpoint_every=CHECKPOINT_EVERY,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ref_params = ref_trainer.model.state_dict()
    res_params = resumed_trainer.model.state_dict()
    params_equal = all(
        np.array_equal(ref_params[k], res_params[k]) for k in ref_params
    )
    bit_identical = (
        killed
        and resumed.resumed_from_step is not None
        and resumed.train_loss == ref.train_loss
        and resumed.train_accuracy == ref.train_accuracy
        and resumed.val_loss == ref.val_loss
        and resumed.val_accuracy == ref.val_accuracy
        and resumed.steps == ref.steps
        and resumed.steps_per_epoch == ref.steps_per_epoch
        and params_equal
    )
    return {
        "bit_identical": bit_identical,
        "killed": killed,
        "resumed_from_step": resumed.resumed_from_step,
        "steps": resumed.steps,
        "reference_train_loss": ref.train_loss,
        "resumed_train_loss": resumed.train_loss,
    }


# -- supervised-grid chaos ----------------------------------------------------


def _guard_cell_value(n: int, seed_seq) -> float:
    """The deterministic result of one chaos-grid cell.

    A pure function of ``(n, seed_seq)`` — the seeded draw proves the
    cell saw the same spawned stream no matter how many attempts, which
    worker, or whether it was replayed from the journal.
    """
    rng = np.random.default_rng(seed_seq)
    return float(n) * 10.0 + float(rng.random())


def _guard_clean_worker(config, seed_seq) -> float:
    """The healthy twin of :func:`_guard_grid_worker` (reference runs)."""
    return _guard_cell_value(config[0], seed_seq)


def _guard_grid_worker(config, seed_seq) -> float:
    """Chaos-grid worker: misbehave once, then compute the honest value.

    ``config`` is ``(n, behaviour, marker_dir)``.  Marker files carry
    the "already misbehaved" bit across attempts — a retry never runs
    in the process whose attempt failed, so module state cannot:

    * ``kill`` — first attempt dies with ``os._exit`` (no traceback, no
      exception: the supervisor sees only pipe EOF);
    * ``hang`` — first attempt sleeps far past any sane deadline;
    * ``transient`` — first attempt raises :class:`TransientError`;
    * ``poison`` — every attempt raises ``ValueError`` (permanent);
    * ``ok`` — never misbehaves.
    """
    n, behaviour, marker_dir = config
    if behaviour == "poison":
        raise ValueError(f"poisoned config {n}: fails deterministically")
    if behaviour != "ok":
        marker = pathlib.Path(marker_dir) / f"{behaviour}-{n}"
        if not marker.exists():
            marker.write_text("misbehaved\n")
            if behaviour == "kill":
                os._exit(3)
            if behaviour == "hang":
                time.sleep(600.0)
            if behaviour == "transient":
                raise TransientError(
                    f"transient blip for config {n} (attempt 1)"
                )
    return _guard_cell_value(n, seed_seq)


def guard_grid_check(seed: int = 0, cell_timeout_s: float = 5.0) -> dict:
    """Drive a fig5-shaped grid through worker pathologies and resume it.

    An 8-cell grid runs under supervision with one worker killed
    mid-cell (``os._exit``), one hung past the deadline, two transient
    faults and one permanently poisoned config.  Success requires:

    * the grid completes; every cell except the poisoned one produces a
      result **bit-identical** to a clean serial run of the same cells;
    * the poisoned cell is quarantined, the hang is a deadline kill, and
      the ``guard.*`` counters account for every retry/timeout/rebuild;
    * a second run with ``resume=True`` executes *only* the cell missing
      from the journal (the quarantined one) — everything else replays
      from the journal with identical results.
    """
    tmp = tempfile.mkdtemp(prefix="repro-chaos-guard-")
    marker_dir = pathlib.Path(tmp) / "markers"
    journal_dir = pathlib.Path(tmp) / "journal"
    marker_dir.mkdir(parents=True, exist_ok=True)
    behaviours = [
        "ok", "kill", "transient", "ok", "hang", "transient", "poison", "ok",
    ]
    configs = [
        (n, behaviour, str(marker_dir))
        for n, behaviour in enumerate(behaviours)
    ]
    poison_index = behaviours.index("poison")
    policy = GuardPolicy(
        cell_timeout_s=cell_timeout_s,
        retries=2,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
        seed=seed,
        journal_dir=journal_dir,
    )
    try:
        with obs.collecting() as registry:
            results, report = run_supervised_grid(
                _guard_grid_worker,
                configs,
                policy=policy,
                jobs=GUARD_JOBS,
                seed=seed,
                name="chaos.guard",
            )
        counters = {
            entry["name"]: entry["value"]
            for entry in registry.snapshot()
            if entry["name"].startswith("guard.")
        }
        reference = run_grid(
            _guard_clean_worker,
            [(n,) for n in range(len(behaviours))],
            jobs=1,
            seed=seed,
        )
        survivors_identical = all(
            results[i] == reference[i]
            for i in range(len(behaviours))
            if i != poison_index
        )
        accounted = (
            report.n_quarantined == 1
            and report.cells[poison_index].status == "quarantined"
            and report.total_crashes == 1
            and report.total_timeouts == 1
            and report.total_retries == 4  # kill + hang + 2 transients
            and counters.get("guard.retries") == 4
            and counters.get("guard.timeouts") == 1
            and counters.get("guard.quarantined") == 1
            and counters.get("guard.pool_rebuilds") == 2
        )

        # Resume: only the quarantined cell is missing from the journal.
        resumed, resumed_report = run_supervised_grid(
            _guard_grid_worker,
            configs,
            policy=GuardPolicy(
                retries=0, journal_dir=journal_dir, resume=True, seed=seed
            ),
            jobs=GUARD_JOBS,
            seed=seed,
            name="chaos.guard.resume",
        )
        executed = [c.index for c in resumed_report.cells if c.attempts]
        resume_ok = (
            resumed_report.journal_hits == len(behaviours) - 1
            and executed == [poison_index]
            and all(
                resumed[i] == results[i]
                for i in range(len(behaviours))
                if i != poison_index
            )
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "ok": survivors_identical and accounted and resume_ok,
        "survivors_identical": survivors_identical,
        "accounted": accounted,
        "resume_ok": resume_ok,
        "report": report,
        "resumed_report": resumed_report,
        "counters": counters,
    }


# -- degraded-tile sweep ------------------------------------------------------


def max_dead_tiles(graph, spec: IPUSpec = GC200, seed: int = 0) -> int:
    """Largest number of dead tiles *graph* survives before genuine OOM.

    Tiles die in a seed-fixed shuffled order; the graph recompiles onto
    the survivors (round-robin fold, concentrating memory) and the
    search returns the largest count for which the fold still fits.
    Returns -1 when the graph does not even fit on the healthy device.
    """
    order = np.random.default_rng(
        np.random.SeedSequence([int(seed)])
    ).permutation(spec.n_tiles)

    def fits(k: int) -> bool:
        excl = (
            frozenset(int(t) for t in order[:k]) if k else None
        )
        try:
            compile_graph(graph, spec, exclude_tiles=excl)
            return True
        except IPUOutOfMemoryError:
            return False

    if not fits(0):
        return -1
    lo, hi = 0, spec.n_tiles - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def degraded_tile_sweep(
    methods: tuple[str, ...] = ("Baseline", "Butterfly", "Pixelfly"),
    dim: int = 2048,
    batch: int = 50,
    seed: int = 0,
) -> Table:
    """Dead-tile tolerance of each weight parameterisation (a Table).

    The paper's memory argument, restated as resilience: a compressed
    model's smaller footprint is headroom the runtime can spend
    absorbing failed tiles, so butterfly/pixelfly SHL models keep
    running on a GC200 that has lost most of its tiles while the dense
    baseline gives out much earlier.
    """
    spec = GC200
    table = Table(
        title=(
            f"Dead-tile tolerance (SHL dim={dim}, batch={batch}, "
            f"{spec.name}: {spec.n_tiles} tiles)"
        ),
        columns=[
            "method",
            "n_params",
            "max dead tiles",
            "survivable fraction",
        ],
    )
    for method in methods:
        model = shl_model(method, dim=dim, seed=seed)
        n_params = model.param_count()
        graph, _ = lower_model(model, spec, batch=batch, in_features=dim)
        dead = max_dead_tiles(graph, spec, seed=seed)
        table.add_row(
            method,
            n_params,
            dead,
            f"{dead / spec.n_tiles:.1%}" if dead >= 0 else "does not fit",
        )
    return table


# -- the `python -m repro chaos` driver ---------------------------------------


def _ipu_timeline(tracer) -> list[tuple]:
    """The simulated-IPU trace as comparable tuples (host track excluded:
    wall-clock timings differ between identical runs by construction)."""
    return [
        (s.name, s.category, round(s.start_s, 15), round(s.duration_s, 15),
         s.depth)
        for s in tracer.spans
        if s.track == Executor.TRACE_TRACK
    ]


def _chaos_once(
    graph, spec: IPUSpec, plan: FaultPlan, nbytes: int
) -> tuple[ChaosResult, list, list]:
    """One traced chaos execution (executor faults + link-drop recovery)."""
    injector = FaultInjector(plan)
    with obs.tracing() as tracer:
        result = chaos_execute(graph, spec, plan, injector=injector)
        links = recover_link_drops(plan, injector, nbytes)
    # Re-snapshot the report: recover_link_drops adds ledger entries
    # after chaos_execute already rolled it up.
    result.faults = injector.report()
    return result, links, _ipu_timeline(tracer)


#: Independently runnable chaos scenarios (``--only`` on the CLI).
SCENARIOS = ("executor", "kill-resume", "guard", "tile-sweep")


def check_scenario(name: str | None) -> None:
    """Raise ValueError unless *name* is None (all) or in :data:`SCENARIOS`."""
    if name is not None and name not in SCENARIOS:
        raise ValueError(
            f"unknown chaos scenario {name!r}; choose from "
            f"{', '.join(SCENARIOS)}"
        )


def run_chaos(
    seed: int = 0, smoke: bool = False, only: str | None = None
) -> tuple[str, bool]:
    """The full chaos suite; returns (rendered report, success flag).

    Success requires: every injected fault recovered, the double-run
    replay deterministic (identical fault reports *and* identical
    simulated-IPU timelines), the kill/resume check bit-identical, the
    supervised-grid check surviving worker kills/hangs/transient faults
    with bit-identical results and a working resume, and the
    degraded-tile sweep ranking compressed models above the dense
    baseline.  *only* restricts the run to one of :data:`SCENARIOS`.
    """
    check_scenario(only)

    def want(scenario: str) -> bool:
        return only is None or only == scenario

    lines: list[str] = []
    ok = True
    spec = GC200

    if want("executor"):
        model_dim = 256 if smoke else 1024
        model = shl_model("Butterfly", dim=model_dim, seed=seed)
        graph, param_bytes = lower_model(
            model, spec, batch=16 if smoke else 50, in_features=model_dim,
            host_io=True,
        )
        plan = default_plan(seed, graph.program)

        first, links, timeline1 = _chaos_once(graph, spec, plan, param_bytes)
        second, _, timeline2 = _chaos_once(graph, spec, plan, param_bytes)

        lines.append(
            f"chaos run (seed={seed}, butterfly SHL dim={model_dim}, "
            f"{len(graph.program)} program steps)"
        )
        lines.append(str(first.faults))
        if first.error is not None:
            ok = False
            lines.append(f"FAIL: execution did not complete: {first.error}")
        else:
            lines.append(
                f"completed with {first.recompiles} recompile(s); excluded "
                f"tiles {sorted(first.excluded_tiles)}; "
                f"retry overhead {format_seconds(first.report.retry_s)} "
                f"of {format_seconds(first.report.total_s)} total"
            )
        if not first.faults.all_recovered:
            ok = False
            lines.append("FAIL: unrecovered fault(s) in the ledger")
        kinds = first.faults.kinds_injected()
        lines.append(f"fault kinds injected: {', '.join(kinds)}")
        if len(kinds) < 4:
            ok = False
            lines.append(
                f"FAIL: only {len(kinds)} fault kinds fired (need 4+)"
            )
        for event, healthy, degraded in links:
            lines.append(
                f"link_drop at step {event.step}: all-reduce "
                f"{format_seconds(healthy)} -> {format_seconds(degraded)} "
                "over surviving link direction"
            )

        replay_ok = (
            first.faults == second.faults and timeline1 == timeline2
        )
        if replay_ok:
            lines.append(
                "replay determinism: OK (identical fault report and "
                f"{len(timeline1)}-span simulated timeline)"
            )
        else:
            ok = False
            lines.append(
                "FAIL: replay mismatch "
                f"(reports equal: {first.faults == second.faults}, "
                f"timelines equal: {timeline1 == timeline2})"
            )

    if want("kill-resume"):
        resume = kill_resume_check(
            seed=seed,
            epochs=2 if smoke else 3,
            kill_after_steps=9 if smoke else 17,
            dim=32 if smoke else 64,
            n_samples=96 if smoke else 240,
        )
        if resume["bit_identical"]:
            lines.append(
                "kill/resume: OK (killed mid-epoch, resumed from step "
                f"{resume['resumed_from_step']}, bit-identical to "
                "uninterrupted run)"
            )
        else:
            ok = False
            lines.append(f"FAIL: kill/resume mismatch: {resume}")

    if want("guard"):
        guard = guard_grid_check(
            seed=seed, cell_timeout_s=5.0 if smoke else 10.0
        )
        report = guard["report"]
        lines.append("")
        lines.append(
            "supervised grid: 1 worker killed, 1 hung, 2 transient "
            "faults, 1 poisoned config"
        )
        lines.append(report.render())
        if guard["ok"]:
            lines.append(
                "supervised grid: OK (survivors bit-identical to clean "
                "serial run; resume re-executed only the quarantined "
                f"cell, {guard['resumed_report'].journal_hits} journal "
                "hits)"
            )
        else:
            ok = False
            lines.append(
                "FAIL: supervised grid mismatch "
                f"(survivors_identical={guard['survivors_identical']}, "
                f"accounted={guard['accounted']}, "
                f"resume_ok={guard['resume_ok']}, "
                f"counters={guard['counters']})"
            )

    if want("tile-sweep"):
        sweep = degraded_tile_sweep(
            methods=("Baseline", "Butterfly")
            if smoke
            else ("Baseline", "Butterfly", "Pixelfly"),
            dim=512 if smoke else 2048,
            batch=16 if smoke else 50,
            seed=seed,
        )
        lines.append("")
        lines.append(sweep.render())
        dense_dead = sweep.rows[0][2]
        compressed_dead = min(row[2] for row in sweep.rows[1:])
        if compressed_dead <= dense_dead:
            ok = False
            lines.append(
                "FAIL: compressed models should survive more dead tiles "
                f"than the dense baseline ({compressed_dead} <= "
                f"{dense_dead})"
            )
        else:
            lines.append(
                "degradation headroom: compressed models survive "
                f"{compressed_dead - dense_dead} more dead tiles than dense"
            )

    lines.append("")
    lines.append("CHAOS OK" if ok else "CHAOS FAILED")
    return "\n".join(lines), ok
