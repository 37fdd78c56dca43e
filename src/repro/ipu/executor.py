"""BSP execution engine: runs or time-estimates a compiled graph.

Each compute set is one superstep: all participating tiles run their
vertices (compute phase, bounded by the slowest tile), then the fabric
moves every remote edge's data (exchange phase), then a global sync.
Timing is therefore

    ``t_cs = sync + max_tile(compute cycles)/f + exchange(max tile recv)``

Copies and host I/O are separate program steps with their own costs.  The
executor can run with numerics (validating the simulator against numpy) or
as a pure estimate (for large sweeps).

Chaos testing: an optional :class:`~repro.faults.injector.FaultInjector`
delivers seeded faults per program step.  Transient compute faults and
exchange ECC corruption are recovered in place — each retry re-runs the
superstep and adds realistic resync + re-exchange time to the step's
``retry_s`` — while a permanent tile failure raises
:class:`~repro.faults.injector.PermanentTileFault` so the caller can
recompile onto the surviving tile set (``compile_graph(...,
exclude_tiles=...)``) and re-execute.  Without an injector the fault hooks
cost one attribute check per step and the output is byte-identical to the
pre-fault executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.faults.injector import (
    NULL_INJECTOR,
    FaultInjector,
    PermanentTileFault,
    UnrecoveredFaultError,
)
from repro.faults.plan import (
    EXCHANGE_CORRUPTION,
    HOST_STALL,
    PERMANENT_TILE,
    TRANSIENT_COMPUTE,
    FaultEvent,
)
from repro.ipu.compiler import CompiledGraph, cs_tile_sum
from repro.ipu.exchange import ExchangeModel
from repro.ipu.vertices import CODELETS, batch_cycles
from repro.obs import get_logger, get_registry, get_tracer
from repro.utils import format_seconds

__all__ = ["StepTiming", "ExecutionReport", "Executor"]


@dataclass(frozen=True)
class StepTiming:
    """Time breakdown of one program step.

    ``retry_s`` is the extra time spent recovering injected faults on
    this step (superstep re-runs, backoff, ECC scrubs, host stalls);
    ``retries`` counts the recovery attempts.  Both stay zero on healthy
    runs.
    """

    name: str
    kind: str
    compute_s: float = 0.0
    exchange_s: float = 0.0
    sync_s: float = 0.0
    host_s: float = 0.0
    retry_s: float = 0.0
    retries: int = 0
    #: Bytes moved through the exchange fabric (or host link) this step.
    exchange_bytes: int = 0

    @property
    def total_s(self) -> float:
        return (
            self.compute_s
            + self.exchange_s
            + self.sync_s
            + self.host_s
            + self.retry_s
        )


@dataclass
class ExecutionReport:
    """Aggregated timing of one program execution."""

    steps: list[StepTiming] = field(default_factory=list)
    engine_overhead_s: float = 0.0

    @property
    def compute_s(self) -> float:
        return sum(s.compute_s for s in self.steps)

    @property
    def exchange_s(self) -> float:
        return sum(s.exchange_s for s in self.steps)

    @property
    def sync_s(self) -> float:
        return sum(s.sync_s for s in self.steps)

    @property
    def host_s(self) -> float:
        return sum(s.host_s for s in self.steps)

    @property
    def retry_s(self) -> float:
        """Total fault-recovery time across all steps."""
        return sum(s.retry_s for s in self.steps)

    @property
    def exchange_bytes(self) -> int:
        """Total bytes moved through the exchange/host links."""
        return sum(s.exchange_bytes for s in self.steps)

    @property
    def retries(self) -> int:
        """Total fault-recovery attempts across all steps."""
        return sum(s.retries for s in self.steps)

    @property
    def total_s(self) -> float:
        """End-to-end time including the fixed engine-run overhead."""
        return self.engine_overhead_s + sum(s.total_s for s in self.steps)

    def __str__(self) -> str:
        retry = (
            f", retry={format_seconds(self.retry_s)}"
            if self.retry_s > 0
            else ""
        )
        return (
            f"ExecutionReport(total={format_seconds(self.total_s)}: "
            f"compute={format_seconds(self.compute_s)}, "
            f"exchange={format_seconds(self.exchange_s)}, "
            f"sync={format_seconds(self.sync_s)}, "
            f"host={format_seconds(self.host_s)}{retry}, "
            f"overhead={format_seconds(self.engine_overhead_s)})"
        )


class Executor:
    """Runs or estimates a :class:`CompiledGraph` program.

    ``injector`` (default: the inactive :data:`NULL_INJECTOR`) delivers
    seeded faults per program step and keeps the recovery ledger; see the
    module docstring for the recovery semantics.
    """

    def __init__(
        self,
        compiled: CompiledGraph,
        injector: FaultInjector | None = None,
    ) -> None:
        self.compiled = compiled
        self.spec = compiled.spec
        self.graph = compiled.graph
        self.exchange = ExchangeModel(self.spec)
        self.injector = injector if injector is not None else NULL_INJECTOR
        #: Vertex records per compute set, built on first numeric use.
        self._records: dict[int, list] = {}
        #: Per-step fault windows of the most recent execution, parallel
        #: to ``report.steps``: (event, [(span name, category, seconds)]).
        self._fault_windows: list[
            list[tuple[FaultEvent, list[tuple[str, str, float]]]]
        ] = []

    # -- timing ---------------------------------------------------------------

    def _compute_set_timings(self) -> list[StepTiming]:
        """Every compute set's timing, computed once per compiled graph.

        Cycles and receive bytes are summed per (compute set, physical
        tile) with ``np.bincount``, which adds in vertex order — the same
        float sums as a vertex-by-vertex walk.
        """
        compiled = self.compiled
        if compiled.cs_timings is not None:
            return compiled.cs_timings
        graph, spec = self.graph, self.spec
        vertices = graph.vertex_table()
        cycles = np.empty(len(vertices.tile), dtype=np.float64)
        for batch in graph.batches:
            cycles[batch.start : batch.stop] = batch_cycles(batch, spec)
        tiles = vertices.tile
        if compiled.tile_map is not None:
            tiles = compiled.tile_map[tiles]
        n_cs = len(graph.compute_sets)
        tile_cycles = cs_tile_sum(vertices.cs, tiles, cycles, n_cs, spec.n_tiles)
        tile_recv = cs_tile_sum(
            vertices.cs, tiles, vertices.remote_in_elements * 4, n_cs,
            spec.n_tiles,
        )
        # Cycle costs are non-negative, so idle tiles (0) never win a max
        # and a compute set without vertices costs nothing.
        compute_s = tile_cycles.max(axis=1, initial=0.0) / spec.clock_hz
        worst_recv = tile_recv.max(axis=1, initial=0.0)
        recv_bytes = tile_recv.sum(axis=1)
        sync_s = spec.sync_cycles / spec.clock_hz
        compiled.cs_timings = [
            StepTiming(
                name=cs.name,
                kind="compute",
                compute_s=float(compute_s[i]),
                exchange_s=self.exchange.gather_time(
                    {0: int(worst_recv[i])} if worst_recv[i] > 0 else {}
                ),
                sync_s=sync_s,
                exchange_bytes=int(recv_bytes[i]),
            )
            for i, cs in enumerate(graph.compute_sets)
        ]
        return compiled.cs_timings

    def _copy_timing(self, src: str, dst: str) -> StepTiming:
        src_var = self.graph.variables[src]
        dst_var = self.graph.variables[dst]
        # Copy streams through the exchange; tiles move their shares in
        # parallel, bounded by the most-loaded destination tile.
        per_tile = src_var.total_bytes / dst_var.tile_span
        exchange_s = self.exchange.gather_time({0: int(np.ceil(per_tile))})
        sync_s = self.spec.sync_cycles / self.spec.clock_hz
        return StepTiming(
            name=f"copy {src}->{dst}",
            kind="copy",
            exchange_s=exchange_s,
            sync_s=sync_s,
            exchange_bytes=int(src_var.total_bytes),
        )

    def _host_timing(self, var: str, kind: str) -> StepTiming:
        nbytes = self.graph.variables[var].total_bytes
        host_s = nbytes / self.spec.effective_host_bandwidth
        return StepTiming(
            name=f"{kind} {var}",
            kind=kind,
            host_s=host_s,
            exchange_bytes=int(nbytes),
        )

    # -- fault injection -------------------------------------------------------

    def _apply_faults(
        self, step_index: int, timing: StepTiming
    ) -> tuple[StepTiming, list[tuple[FaultEvent, list[tuple[str, str, float]]]]]:
        """Inject this step's planned faults into *timing*.

        Returns the (possibly fault-extended) timing plus the fault
        windows for trace emission.  Raises :class:`PermanentTileFault`
        for permanent tile deaths (recorded fatal until the caller
        recompiles and marks them recovered) and
        :class:`UnrecoveredFaultError` when a transient fault exceeds the
        policy's retry budget.
        """
        policy = self.injector.policy
        sync_s = self.spec.sync_cycles / self.spec.clock_hz
        windows: list[tuple[FaultEvent, list[tuple[str, str, float]]]] = []
        retry_s = 0.0
        retries = 0
        for event in self.injector.faults_at(step_index, self.spec.n_tiles):
            if event.kind == PERMANENT_TILE:
                if timing.kind != "compute":
                    continue
                self.injector.record_fatal(event)
                log = get_logger()
                if log.enabled:
                    log.error(
                        "executor.abort",
                        "permanent tile death",
                        step=step_index,
                        tile=event.tile,
                    )
                raise PermanentTileFault(event)
            if event.kind == TRANSIENT_COMPUTE:
                if timing.kind != "compute":
                    continue
                if event.severity > policy.max_retries:
                    self.injector.record_fatal(event)
                    log = get_logger()
                    if log.enabled:
                        log.error(
                            "executor.abort",
                            "retry budget exhausted",
                            step=step_index,
                            tile=event.tile,
                            max_retries=policy.max_retries,
                        )
                    raise UnrecoveredFaultError(event, policy.max_retries)
                # Each failed attempt: backoff, then re-run the whole
                # superstep (compute + re-exchange + resync); one final
                # resync once the retry succeeds.
                rerun_s = timing.compute_s + timing.exchange_s + timing.sync_s
                segments = [
                    (
                        f"retry{a}",
                        "retry",
                        policy.backoff_s(a) + rerun_s,
                    )
                    for a in range(1, event.severity + 1)
                ]
                segments.append(("recovery", "recovery", sync_s))
                n_retries = event.severity
            elif event.kind == EXCHANGE_CORRUPTION:
                if timing.kind not in ("compute", "copy"):
                    continue
                # ECC scrub + full re-exchange of the superstep's data,
                # then a resync so all tiles rejoin the BSP schedule.
                segments = [
                    (
                        "retry1",
                        "retry",
                        self.exchange.ecc_scrub_time() + timing.exchange_s,
                    ),
                    ("recovery", "recovery", sync_s),
                ]
                n_retries = 1
            elif event.kind == HOST_STALL:
                if timing.kind not in ("host_write", "host_read"):
                    continue
                segments = [
                    (
                        "retry1",
                        "retry",
                        policy.host_stall_s * event.severity,
                    ),
                    ("recovery", "recovery", 0.0),
                ]
                n_retries = 1
            else:  # pragma: no cover - link faults live in ipu.multi
                continue
            window_s = sum(s for _, _, s in segments)
            retry_s += window_s
            retries += n_retries
            windows.append((event, segments))
            self.injector.record_recovered(
                event, retries=n_retries, retry_s=window_s
            )
        if not windows:
            return timing, windows
        return (
            replace(timing, retry_s=timing.retry_s + retry_s,
                    retries=timing.retries + retries),
            windows,
        )

    def _step_timing(self, step_index: int, step) -> StepTiming:
        """Timing of one program step, faults included when injecting."""
        if step.kind == "compute":
            timing = self._compute_set_timings()[step.ref]
        elif step.kind == "copy":
            timing = self._copy_timing(*step.ref)
        else:
            timing = self._host_timing(step.ref, step.kind)
        if self.injector.active:
            timing, windows = self._apply_faults(step_index, timing)
            self._fault_windows.append(windows)
        return timing

    #: Virtual tracer track the executor's simulated timeline lives on.
    TRACE_TRACK = "ipu"

    def _trace_report(self, report: ExecutionReport) -> None:
        """Emit the report as spans on the simulated-IPU timeline.

        One top-level span per program step (category = step kind, with
        the compute/exchange/sync/host split as attributes) plus nested
        phase spans, so the Chrome trace shows exactly the BSP structure.
        Span durations match :class:`StepTiming` totals exactly.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return
        track = self.TRACE_TRACK
        graph_name = self.graph.name
        if report.engine_overhead_s > 0:
            tracer.add_span(
                "engine_overhead",
                report.engine_overhead_s,
                track,
                category="overhead",
                graph=graph_name,
            )
        for index, step in enumerate(report.steps):
            t0 = tracer.cursor(track)
            tracer.add_span(
                step.name,
                step.total_s,
                track,
                category=step.kind,
                graph=graph_name,
                compute_s=step.compute_s,
                exchange_s=step.exchange_s,
                sync_s=step.sync_s,
                host_s=step.host_s,
            )
            offset = t0
            for phase in ("compute", "exchange", "sync", "host"):
                duration = getattr(step, f"{phase}_s")
                if duration > 0:
                    tracer.add_span(
                        phase,
                        duration,
                        track,
                        category="phase",
                        start_s=offset,
                        depth=1,
                    )
                    offset += duration
            # Fault windows trail the healthy phases: one depth-1 span
            # per injected fault (category "fault") wrapping its retry /
            # recovery segments, so chaos runs are legible in the trace.
            windows = (
                self._fault_windows[index]
                if index < len(self._fault_windows)
                else []
            )
            for event, segments in windows:
                window_s = sum(s for _, _, s in segments)
                tracer.add_span(
                    event.kind,
                    window_s,
                    track,
                    category="fault",
                    start_s=offset,
                    depth=1,
                    tile=event.tile,
                    step=event.step,
                    severity=event.severity,
                )
                seg_offset = offset
                for seg_name, seg_category, seg_s in segments:
                    tracer.add_span(
                        seg_name,
                        seg_s,
                        track,
                        category=seg_category,
                        start_s=seg_offset,
                        depth=2,
                    )
                    seg_offset += seg_s
                offset += window_s

    def _record_metrics(self, report: ExecutionReport) -> None:
        """Fold the report into the metric registry (no-op when off)."""
        registry = get_registry()
        if not registry.enabled:
            return
        graph = self.graph.name
        for phase in ("compute", "exchange", "sync", "host", "retry"):
            registry.counter(f"executor.{phase}_s", graph=graph).inc(
                getattr(report, f"{phase}_s")
            )
        registry.counter("executor.retries", graph=graph).inc(
            report.retries
        )
        registry.counter("executor.exchange_bytes", graph=graph).inc(
            report.exchange_bytes
        )
        step_hist = registry.histogram("executor.step_s", graph=graph)
        for step in report.steps:
            registry.counter(
                "executor.steps", graph=graph, kind=step.kind
            ).inc()
            step_hist.observe(step.total_s)

    def estimate(self) -> ExecutionReport:
        """Time the program without executing numerics."""
        report = ExecutionReport(
            engine_overhead_s=self.spec.engine_run_overhead_s
        )
        self._fault_windows = []
        for index, step in enumerate(self.graph.program):
            report.steps.append(self._step_timing(index, step))
        self._trace_report(report)
        self._record_metrics(report)
        return report

    # -- numeric execution -----------------------------------------------------

    def _zero_state(self) -> dict[str, np.ndarray]:
        """One private zero buffer per variable (unplanned layout)."""
        return {
            name: np.zeros(var.shape, dtype=np.float64)
            for name, var in self.graph.variables.items()
        }

    def _aliased_state(self, plan) -> dict[str, np.ndarray]:
        """Slot-aliased buffers mirroring the compile-time memory plan.

        One flat buffer per slot; every member variable maps a reshaped
        view of the buffer's prefix, so slot-mates genuinely share
        storage and a planning bug would corrupt numerics visibly.
        """
        buffers = {
            slot.index: np.zeros(slot.n_elements, dtype=np.float64)
            for slot in plan.slots
        }
        return {
            name: buffers[plan.assignment[name]][: var.n_elements].reshape(
                var.shape
            )
            for name, var in self.graph.variables.items()
        }

    def _seed_inputs(
        self,
        state: dict[str, np.ndarray],
        inputs: dict[str, np.ndarray],
        skip: "frozenset[str] | set[str]" = frozenset(),
    ) -> None:
        """Write host inputs into *state* buffers (in place).

        *skip* holds the plan's reused variables: they are fully defined
        before any read, so their initial contents are unobservable and
        seeding them would scribble over an aliased slot-mate.
        """
        for name, var in self.graph.variables.items():
            if name not in inputs:
                continue
            arr = np.asarray(inputs[name])
            if arr.shape != var.shape:
                raise ValueError(
                    f"input {name!r} has shape {arr.shape}, variable "
                    f"expects {var.shape}"
                )
            if name in skip:
                continue
            state[name][...] = arr.astype(np.float64, copy=False)

    def _apply_step(self, step, state: dict[str, np.ndarray]) -> None:
        """Apply one program step's numerics to *state*, in place."""
        if step.kind == "compute":
            records = self._records.get(step.ref)
            if records is None:
                records = list(self.graph.vertices_in(step.ref))
                self._records[step.ref] = records
            for vertex in records:
                CODELETS[vertex.codelet].execute(vertex, state)
        elif step.kind == "copy":
            src, dst = step.ref
            state[dst][...] = state[src].reshape(
                self.graph.variables[dst].shape
            )

    def _verify_aliasing(
        self,
        inputs: dict[str, np.ndarray],
        state: dict[str, np.ndarray],
        plan,
    ) -> None:
        """Replay unplanned and require bit-identical surviving values.

        A slot's last occupant owns its bytes at program end, so every
        surviving variable must match the unplanned reference exactly —
        any divergence means the planner aliased two overlapping live
        ranges.
        """
        shadow = self._zero_state()
        self._seed_inputs(shadow, inputs)
        for step in self.graph.program:
            self._apply_step(step, shadow)
        for name in sorted(plan.surviving_variables()):
            if not np.array_equal(state[name], shadow[name]):
                raise RuntimeError(
                    f"memory plan corrupted variable {name!r}: planned "
                    "execution diverged from the unplanned reference"
                )

    def run(
        self,
        inputs: dict[str, np.ndarray],
        check_aliasing: bool = False,
    ) -> tuple[dict[str, np.ndarray], ExecutionReport]:
        """Execute the program numerically; returns (state, timing report).

        Every variable gets a zero-initialised buffer unless supplied in
        *inputs*.  Raises if the graph uses estimate-only codelets.

        When the graph was compiled with ``plan_memory=True``, buffers
        are allocated slot-aliased exactly as planned: variables sharing
        a slot share storage, and the values of
        ``plan.surviving_variables()`` (every slot's last occupant —
        which includes all program outputs) are guaranteed bit-identical
        to an unplanned run.  ``check_aliasing=True`` verifies that
        guarantee against an unplanned replay and raises on divergence.
        """
        unknown = {
            name
            for name in self.graph.codelets_used()
            if CODELETS.get(name) is None or CODELETS[name].execute is None
        }
        if unknown:
            raise RuntimeError(
                f"graph uses estimate-only codelets {sorted(unknown)}; "
                "numeric run is not available"
            )
        plan = self.compiled.memory_plan()
        if plan is not None:
            state = self._aliased_state(plan)
            self._seed_inputs(state, inputs, skip=plan.reused_variables())
        else:
            state = self._zero_state()
            self._seed_inputs(state, inputs)
        report = ExecutionReport(
            engine_overhead_s=self.spec.engine_run_overhead_s
        )
        self._fault_windows = []
        with get_tracer().span(
            "executor.run",
            category="ipu",
            graph=self.graph.name,
            planned=plan is not None,
        ):
            for index, step in enumerate(self.graph.program):
                # Timing first: a permanent tile fault aborts the step
                # before its numerics execute (the data died with the
                # tile); recovered faults replay to the same values.
                timing = self._step_timing(index, step)
                self._apply_step(step, state)
                report.steps.append(timing)
        self._trace_report(report)
        self._record_metrics(report)
        if check_aliasing and plan is not None:
            self._verify_aliasing(inputs, state, plan)
        return state, report
