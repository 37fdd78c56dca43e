"""Executor fault injection: recovery timing, fatal paths, trace spans,
and the zero-fault byte-identity guarantee."""

import numpy as np
import pytest

from repro import obs
from repro.faults.injector import (
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
    FaultPlan,
)
from repro.ipu import executor
from repro.ipu.compiler import compile_graph
from repro.ipu.executor import Executor
from repro.ipu.graph import Edge, Graph
from repro.ipu.machine import GC200


def build_pipeline(size=64, stages=3, tiles=4, host_io=True):
    """A small multi-tile elementwise pipeline with optional host I/O."""
    graph = Graph(GC200.n_tiles, name="chaos-test")
    graph.add_variable("v0", (size,))
    if host_io:
        graph.add_host_write("v0")
    bounds = np.linspace(0, size, tiles + 1, dtype=int)
    for i in range(stages):
        graph.add_variable(f"v{i + 1}", (size,))
        cs = graph.add_compute_set(f"s{i}")
        for p in range(tiles):
            lo, hi = int(bounds[p]), int(bounds[p + 1])
            graph.add_vertices(
                cs, "ElementwiseUnary", [p],
                inputs=[Edge(f"v{i}", hi - lo, key=slice(lo, hi))],
                outputs=[Edge(f"v{i + 1}", hi - lo, key=slice(lo, hi))],
                params={"op": "relu"},
            )
    if host_io:
        graph.add_host_read(f"v{stages}")
    return graph


def compute_step_indices(graph):
    return [i for i, s in enumerate(graph.program) if s.kind == "compute"]


def ipu_spans(tracer):
    return [
        (s.name, s.category, s.start_s, s.duration_s, s.depth)
        for s in tracer.spans
        if s.track == Executor.TRACE_TRACK
    ]


class TestZeroFaultByteIdentity:
    """Satellite guarantee: an empty FaultPlan changes nothing at all."""

    def test_reports_and_traces_identical(self):
        graph = build_pipeline()
        compiled = compile_graph(graph, GC200)
        with obs.tracing() as t_plain:
            plain = Executor(compiled).estimate()
        null_injector = FaultInjector(FaultPlan.none())
        assert not null_injector.active
        with obs.tracing() as t_null:
            nulled = Executor(compiled, injector=null_injector).estimate()
        assert plain == nulled
        assert ipu_spans(t_plain) == ipu_spans(t_null)
        assert null_injector.report().n_injected == 0

    def test_run_numerics_identical(self):
        graph = build_pipeline(host_io=False)
        compiled = compile_graph(graph, GC200)
        x = np.random.default_rng(0).standard_normal(64)
        state_a, report_a = Executor(compiled).run({"v0": x})
        state_b, report_b = Executor(
            compiled, injector=FaultInjector(FaultPlan.none())
        ).run({"v0": x})
        assert report_a == report_b
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key])

    def test_healthy_steps_have_zero_retry_fields(self):
        graph = build_pipeline()
        report = Executor(compile_graph(graph, GC200)).estimate()
        assert report.retries == 0
        assert report.retry_s == 0.0
        assert all(s.retries == 0 and s.retry_s == 0.0 for s in report.steps)


class TestTransientRecovery:
    def test_retry_time_added_to_faulted_step_only(self):
        graph = build_pipeline()
        step = compute_step_indices(graph)[0]
        plan = FaultPlan(
            events=(
                FaultEvent(TRANSIENT_COMPUTE, step=step, tile=1, severity=2),
            )
        )
        compiled = compile_graph(graph, GC200)
        healthy = Executor(compiled).estimate()
        injector = FaultInjector(plan)
        faulty = Executor(compiled, injector=injector).estimate()
        assert faulty.retries == 2
        assert faulty.retry_s > 0
        for i, (h, f) in enumerate(zip(healthy.steps, faulty.steps)):
            if i == step:
                assert f.retry_s > h.total_s  # 2 re-runs + backoff + sync
                assert f.compute_s == h.compute_s
            else:
                assert f == h
        assert faulty.total_s == pytest.approx(
            healthy.total_s + faulty.retry_s
        )
        report = injector.report()
        assert report.all_recovered
        assert report.total_retries == 2

    def test_backoff_doubles_per_attempt(self, monkeypatch):
        # Large enough to dominate, small enough to stay exact in binary.
        monkeypatch.setattr(executor, "BACKOFF_BASE_S", 2.0**-10)
        graph = build_pipeline()
        step = compute_step_indices(graph)[0]
        plan = FaultPlan(
            events=(
                FaultEvent(TRANSIENT_COMPUTE, step=step, tile=1, severity=3),
            )
        )
        compiled = compile_graph(graph, GC200)
        h = Executor(compiled).estimate().steps[step]
        f = Executor(compiled, injector=FaultInjector(plan)).estimate()
        rerun = h.compute_s + h.exchange_s + h.sync_s
        # Attempts 1..3 back off 1, 2 and 4 base delays; then one resync.
        expected = 7 * 2.0**-10 + 3 * rerun + GC200.sync_cycles / GC200.clock_hz
        assert f.steps[step].retry_s == pytest.approx(expected, rel=1e-12)

    def test_exhausted_retry_budget_is_fatal(self):
        graph = build_pipeline()
        step = compute_step_indices(graph)[0]
        plan = FaultPlan(
            events=(
                FaultEvent(TRANSIENT_COMPUTE, step=step, tile=0, severity=9),
            )
        )
        injector = FaultInjector(plan)  # MAX_RETRIES = 3
        executor = Executor(compile_graph(graph, GC200), injector=injector)
        with pytest.raises(UnrecoveredFaultError, match="3 retries"):
            executor.estimate()
        report = injector.report()
        assert report.n_fatal == 1
        assert not report.all_recovered


class TestExchangeAndHostFaults:
    def test_exchange_corruption_scrub(self):
        graph = build_pipeline()
        step = compute_step_indices(graph)[1]
        plan = FaultPlan(
            events=(FaultEvent(EXCHANGE_CORRUPTION, step=step, tile=0),)
        )
        compiled = compile_graph(graph, GC200)
        healthy = Executor(compiled).estimate()
        faulty = Executor(compiled, injector=FaultInjector(plan)).estimate()
        scrub = GC200.exchange_ecc_retry_cycles / GC200.clock_hz
        sync = GC200.sync_cycles / GC200.clock_hz
        expected = scrub + healthy.steps[step].exchange_s + sync
        assert faulty.steps[step].retry_s == pytest.approx(expected)
        assert faulty.steps[step].retries == 1

    def test_host_stall_scales_with_severity(self, monkeypatch):
        monkeypatch.setattr(executor, "HOST_STALL_S", 1e-4)
        graph = build_pipeline()
        plan = FaultPlan(
            events=(FaultEvent(HOST_STALL, step=0, severity=3),)
        )
        compiled = compile_graph(graph, GC200)
        faulty = Executor(compiled, injector=FaultInjector(plan)).estimate()
        assert graph.program[0].kind == "host_write"
        assert faulty.steps[0].retry_s == pytest.approx(3e-4)

    def test_kind_step_mismatch_is_ignored(self):
        """A host stall scheduled on a compute step never fires."""
        graph = build_pipeline()
        step = compute_step_indices(graph)[0]
        plan = FaultPlan(events=(FaultEvent(HOST_STALL, step=step),))
        injector = FaultInjector(plan)
        compiled = compile_graph(graph, GC200)
        healthy = Executor(compiled).estimate()
        faulty = Executor(compiled, injector=injector).estimate()
        assert faulty.steps == healthy.steps
        assert injector.report().n_injected == 0


class TestPermanentTileFault:
    def test_raises_and_recovers_via_recompile(self):
        graph = build_pipeline()
        step = compute_step_indices(graph)[-1]
        plan = FaultPlan(
            events=(FaultEvent(PERMANENT_TILE, step=step, tile=2),)
        )
        injector = FaultInjector(plan)
        with pytest.raises(PermanentTileFault, match="tile 2"):
            Executor(
                compile_graph(graph, GC200), injector=injector
            ).estimate()
        assert injector.report().n_fatal == 1
        # Recompile without the dead tile; mark the fault recovered.
        degraded = compile_graph(graph, GC200, exclude_tiles={2})
        injector.record_recovered(plan.events[0], retries=1)
        report = Executor(degraded, injector=injector).estimate()
        assert report.total_s > 0
        final = injector.report()
        assert final.all_recovered
        assert final.n_injected == 1  # dedup across both executions

    def test_degraded_compute_serialises_on_folded_tile(self):
        graph = build_pipeline(tiles=4)
        healthy = Executor(compile_graph(graph, GC200)).estimate()
        # Kill every tile but one: all four vertex tiles fold onto the
        # single survivor and their compute must serialise (~4x).
        degraded_compiled = compile_graph(
            graph, GC200, exclude_tiles=set(range(1, GC200.n_tiles))
        )
        degraded = Executor(degraded_compiled).estimate()
        assert degraded.compute_s > 2 * healthy.compute_s

    def test_run_aborts_before_step_numerics(self):
        graph = build_pipeline(host_io=False)
        step = compute_step_indices(graph)[0]
        plan = FaultPlan(
            events=(FaultEvent(PERMANENT_TILE, step=step, tile=0),)
        )
        executor = Executor(
            compile_graph(graph, GC200), injector=FaultInjector(plan)
        )
        with pytest.raises(PermanentTileFault):
            executor.run({"v0": np.ones(64)})


class TestFaultTraceSpans:
    def test_fault_retry_recovery_spans_emitted(self):
        graph = build_pipeline()
        step = compute_step_indices(graph)[0]
        plan = FaultPlan(
            events=(
                FaultEvent(TRANSIENT_COMPUTE, step=step, tile=1, severity=2),
            )
        )
        with obs.tracing() as tracer:
            report = Executor(
                compile_graph(graph, GC200), injector=FaultInjector(plan)
            ).estimate()
        spans = [
            s for s in tracer.spans if s.track == Executor.TRACE_TRACK
        ]
        fault = [s for s in spans if s.category == "fault"]
        retries = [s for s in spans if s.category == "retry"]
        recoveries = [s for s in spans if s.category == "recovery"]
        assert len(fault) == 1
        assert fault[0].name == TRANSIENT_COMPUTE
        assert fault[0].depth == 1
        assert fault[0].attributes["tile"] == 1
        assert len(retries) == 2
        assert len(recoveries) == 1
        assert all(s.depth == 2 for s in retries + recoveries)
        # The fault window sits inside its step span and sums exactly.
        window = sum(s.duration_s for s in retries + recoveries)
        assert window == pytest.approx(report.steps[step].retry_s)
        step_span = [
            s for s in spans if s.depth == 0 and s.category == "compute"
        ][0]
        assert fault[0].start_s >= step_span.start_s
        assert fault[0].end_s <= step_span.end_s + 1e-15

    def test_estimate_and_run_fault_timings_identical(self):
        graph = build_pipeline(host_io=False)
        step = compute_step_indices(graph)[1]
        plan = FaultPlan(
            events=(
                FaultEvent(TRANSIENT_COMPUTE, step=step, tile=0, severity=1),
                FaultEvent(EXCHANGE_CORRUPTION, step=step, tile=0),
            )
        )
        compiled = compile_graph(graph, GC200)
        est = Executor(compiled, injector=FaultInjector(plan)).estimate()
        _, run = Executor(compiled, injector=FaultInjector(plan)).run(
            {"v0": np.ones(64)}
        )
        assert est.steps == run.steps
