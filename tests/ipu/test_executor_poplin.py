"""Tests for the BSP executor and the poplin matmul planner/builder."""

import numpy as np
import pytest

from repro.ipu.compiler import compile_graph
from repro.ipu.executor import Executor
from repro.ipu.machine import GC200
from repro.ipu.poplin import (
    MatMulPlan,
    build_blocked_matmul_graph,
    build_matmul_graph,
    choose_grid,
    matmul_report,
    poptorch_matmul_report,
)


class TestPlanner:
    def test_plan_fits_budget(self):
        for n in [64, 512, 2048, 4096]:
            plan = choose_grid(GC200, n, n, n)
            assert plan.tile_memory_bytes() <= GC200.usable_tile_memory

    def test_plan_dims_validated(self):
        with pytest.raises(ValueError):
            choose_grid(GC200, 0, 4, 4)

    def test_chunk_shapes(self):
        plan = MatMulPlan(100, 60, 40, pm=8, pn=4, pk=2, n_tiles=1472)
        assert plan.chunk == (13, 15, 20)
        assert plan.cells == 64
        assert plan.supersteps == 2  # 32 ij-cells on 32 tiles x pk=2

    def test_supersteps_serialise_large_grids(self):
        plan = MatMulPlan(
            4096, 4096, 4096, pm=64, pn=64, pk=8, n_tiles=1472
        )
        assert plan.cells == 32768
        assert plan.supersteps == 3 * 8  # ceil(4096/1472) * pk


class TestMatMulNumerics:
    @pytest.mark.parametrize(
        "shape", [(16, 16, 16), (96, 80, 64), (300, 200, 500), (33, 7, 129)]
    )
    def test_matches_numpy(self, shape, rng):
        m, n, k = shape
        graph, _ = build_matmul_graph(GC200, m, n, k)
        compiled = compile_graph(graph, GC200, check_fit=False)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        state, _ = Executor(compiled).run({"A": a, "B": b})
        np.testing.assert_allclose(state["C"], a @ b, atol=1e-9)

    def test_serialised_accumulation_matches(self, rng):
        # Force a plan with pk > 1 to exercise in-place accumulation.
        plan = MatMulPlan(32, 32, 64, pm=4, pn=4, pk=4, n_tiles=GC200.n_tiles)
        graph, _ = build_matmul_graph(GC200, 32, 32, 64, plan=plan)
        compiled = compile_graph(graph, GC200, check_fit=False)
        a = rng.standard_normal((32, 64))
        b = rng.standard_normal((64, 32))
        state, _ = Executor(compiled).run({"A": a, "B": b})
        np.testing.assert_allclose(state["C"], a @ b, atol=1e-9)

    def test_scalar_codelet_same_result(self, rng):
        graph, _ = build_matmul_graph(
            GC200, 24, 24, 24, codelet="MatMulPartialScalar"
        )
        compiled = compile_graph(graph, GC200, check_fit=False)
        a = rng.standard_normal((24, 24))
        b = rng.standard_normal((24, 24))
        state, _ = Executor(compiled).run({"A": a, "B": b})
        np.testing.assert_allclose(state["C"], a @ b, atol=1e-9)

    def test_blocked_matches_numpy(self, rng):
        graph = build_blocked_matmul_graph(GC200, 48, 40, 56, block=16)
        compiled = compile_graph(graph, GC200, check_fit=False)
        a = rng.standard_normal((48, 56))
        b = rng.standard_normal((56, 40))
        state, _ = Executor(compiled).run({"A": a, "B": b})
        np.testing.assert_allclose(state["C"], a @ b, atol=1e-9)

    def test_input_shape_validated(self, rng):
        graph, _ = build_matmul_graph(GC200, 8, 8, 8)
        compiled = compile_graph(graph, GC200, check_fit=False)
        with pytest.raises(ValueError, match="shape"):
            Executor(compiled).run({"A": np.zeros((4, 4))})


class TestTiming:
    def test_report_components_positive(self):
        report = matmul_report(GC200, 256, 256, 256)
        assert report.compute_s > 0
        assert report.exchange_s > 0
        assert report.sync_s > 0
        assert report.total_s > report.engine_overhead_s

    def test_poplin_hits_high_utilisation_at_scale(self):
        report = matmul_report(GC200, 2048, 2048, 2048, check_fit=False)
        gflops = 2 * 2048**3 / report.total_s / 1e9
        # Paper Table 2: 44219 GFLOPS for poplin.
        assert 30000 < gflops < 62500

    def test_naive_orders_of_magnitude_slower(self):
        fast = matmul_report(GC200, 1024, 1024, 1024, check_fit=False)
        slow = matmul_report(
            GC200, 1024, 1024, 1024, codelet="MatMulPartialScalar",
            check_fit=False,
        )
        assert slow.total_s > 10 * fast.total_s

    def test_blocked_slower_than_naive_like_paper(self):
        # Table 2: blocked 93 < naive 525 GFLOPS.
        n = 1024
        naive = matmul_report(
            GC200, n, n, n, codelet="MatMulPartialScalar", check_fit=False
        ).total_s
        blocked_graph = build_blocked_matmul_graph(GC200, n, n, n, block=128)
        blocked = (
            Executor(compile_graph(blocked_graph, GC200, check_fit=False))
            .estimate()
            .total_s
        )
        assert blocked > naive

    def test_poptorch_mode_includes_host_copies(self):
        plain = matmul_report(GC200, 512, 512, 512).total_s
        with_io = poptorch_matmul_report(GC200, 512, 512, 512).total_s
        assert with_io > plain
        report = poptorch_matmul_report(GC200, 512, 512, 512)
        assert report.host_s > 0

    def test_small_problems_dominated_by_overhead(self):
        report = matmul_report(GC200, 16, 16, 16)
        assert report.engine_overhead_s / report.total_s > 0.3

    def test_throughput_increases_with_size(self):
        rates = []
        for n in [128, 512, 2048]:
            t = matmul_report(GC200, n, n, n, check_fit=False).total_s
            rates.append(2 * n**3 / t)
        assert rates[0] < rates[1] < rates[2]

    def test_estimate_only_codelets_refuse_numeric_run(self):
        from repro.ipu.graph import Edge, Graph

        g = Graph(GC200.n_tiles)
        g.add_variable("x", (4,))
        cs = g.add_compute_set("cs")
        g.add_vertices(
            cs, "ButterflyStage", [0],
            inputs=[Edge("x", 4)],
            outputs=[Edge("x", 4)],
            params={"n_pairs": 2},
        )
        compiled = compile_graph(g, GC200)
        Executor(compiled).estimate()  # fine
        with pytest.raises(RuntimeError, match="estimate-only"):
            Executor(compiled).run({})

    def test_execution_report_str(self):
        report = matmul_report(GC200, 64, 64, 64)
        assert "compute" in str(report)
