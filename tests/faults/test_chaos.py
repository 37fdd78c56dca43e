"""The chaos harness: recompile-and-recover loop, replay determinism,
kill/resume, and the CLI driver."""

import pytest

from repro.experiments.chaos import (
    ChaosResult,
    chaos_execute,
    default_plan,
    kill_resume_check,
    recover_link_drops,
    run_chaos,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    LINK_DROP,
    PERMANENT_TILE,
    TRANSIENT_COMPUTE,
    FaultEvent,
    FaultPlan,
)
from repro.ipu import executor
from repro.ipu.machine import GC200

from tests.faults.test_executor_faults import (
    build_pipeline,
    compute_step_indices,
)

# the whole chaos suite, subprocess kills included: excluded from the
# `-m "not slow"` fast loop (docs/VERIFICATION.md).
pytestmark = pytest.mark.slow


class TestChaosExecute:
    def test_clean_plan_completes(self):
        result = chaos_execute(build_pipeline(), GC200, FaultPlan.none())
        assert result.ok
        assert result.recompiles == 0
        assert result.faults.n_injected == 0

    def test_permanent_fault_recovers_by_recompiling(self):
        graph = build_pipeline()
        step = compute_step_indices(graph)[0]
        plan = FaultPlan(
            events=(FaultEvent(PERMANENT_TILE, step=step, tile=3),)
        )
        result = chaos_execute(graph, GC200, plan)
        assert result.ok
        assert result.recompiles == 1
        assert result.excluded_tiles == frozenset({3})
        assert result.faults.all_recovered

    def test_two_sequential_tile_deaths(self):
        graph = build_pipeline()
        steps = compute_step_indices(graph)
        plan = FaultPlan(
            events=(
                FaultEvent(PERMANENT_TILE, step=steps[0], tile=0),
                FaultEvent(PERMANENT_TILE, step=steps[-1], tile=1),
            )
        )
        result = chaos_execute(graph, GC200, plan)
        assert result.ok
        assert result.recompiles == 2
        assert result.excluded_tiles == frozenset({0, 1})
        assert result.faults.n_injected == 2

    def test_unrecovered_transient_reported_as_error(self, monkeypatch):
        graph = build_pipeline()
        step = compute_step_indices(graph)[0]
        plan = FaultPlan(
            events=(
                FaultEvent(TRANSIENT_COMPUTE, step=step, tile=0, severity=9),
            )
        )
        monkeypatch.setattr(executor, "MAX_RETRIES", 2)
        result = chaos_execute(graph, GC200, plan)
        assert not result.ok
        assert "not recovered" in result.error
        assert result.faults.n_fatal == 1

    def test_replay_determinism(self):
        graph = build_pipeline()
        plan = FaultPlan.from_rates(
            11, transient_compute=0.5, exchange_corruption=0.5
        )
        a = chaos_execute(graph, GC200, plan)
        b = chaos_execute(graph, GC200, plan)
        assert a.faults == b.faults
        assert a.report.steps == b.report.steps

    def test_result_flags(self):
        result = ChaosResult(
            report=None,
            faults=FaultInjector(FaultPlan.none()).report(),
            excluded_tiles=frozenset(),
            recompiles=0,
            error="boom",
        )
        assert not result.ok


class TestDefaultPlan:
    def test_covers_at_least_four_kinds(self):
        graph = build_pipeline()
        plan = default_plan(0, graph.program)
        kinds = {e.kind for e in plan.events}
        assert len(kinds) >= 4
        assert not plan.is_empty

    def test_rejects_computeless_program(self):
        graph = build_pipeline(stages=1)
        graph.program[:] = [s for s in graph.program if s.kind != "compute"]
        with pytest.raises(ValueError, match="no compute steps"):
            default_plan(0, graph.program)


class TestLinkDropRecovery:
    def test_ledgered_with_degraded_cost(self):
        plan = FaultPlan(events=(FaultEvent(LINK_DROP, step=0),))
        injector = FaultInjector(plan)
        triples = recover_link_drops(plan, injector, nbytes=10**6)
        assert len(triples) == 1
        _, healthy, degraded = triples[0]
        assert degraded > healthy
        report = injector.report()
        assert report.kinds_injected() == [LINK_DROP]
        assert report.all_recovered
        assert report.total_retry_s == pytest.approx(degraded - healthy)


class TestKillResume:
    def test_bit_identical(self):
        result = kill_resume_check(
            seed=0, epochs=2, kill_after_steps=7, dim=32, n_samples=96
        )
        assert result["killed"]
        assert result["bit_identical"]
        assert result["resumed_from_step"] is not None


class TestRunChaos:
    def test_smoke_suite_passes(self):
        text, ok = run_chaos(seed=0, smoke=True)
        assert ok, text
        assert "CHAOS OK" in text
        assert "replay determinism: OK" in text
        assert "kill/resume: OK" in text
        for kind in (
            "transient_compute",
            "permanent_tile",
            "exchange_corruption",
            "host_stall",
            "link_drop",
        ):
            assert kind in text

    def test_seed_changes_drawn_faults(self):
        graph = build_pipeline(stages=6)
        plan_a = FaultPlan.from_rates(0, transient_compute=0.4)
        plan_b = FaultPlan.from_rates(123, transient_compute=0.4)
        a = chaos_execute(graph, GC200, plan_a)
        b = chaos_execute(graph, GC200, plan_b)
        # Different seeds, same rates: almost surely different ledgers
        # (6 compute steps at p=0.4 each).
        assert a.ok and b.ok
        assert a.faults != b.faults or a.report.steps != b.report.steps
