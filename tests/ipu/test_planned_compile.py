"""compile_graph(plan_memory=True): reports, fit gating, caching, executor."""

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.cache import CompilationCache, caching
from repro.ipu.compiler import (
    IPUOutOfMemoryError,
    compile_cache_key,
    compile_graph,
)
from repro.ipu.executor import Executor
from repro.ipu.machine import GC200, KiB
from repro.ipu.memplan import MemoryPlan, MemorySlot
from repro.ipu.poptorch import IPUModule


def mlp_module(depth=4, dim=48, batch=16):
    model = nn.Sequential(
        *[
            m
            for i in range(depth)
            for m in (nn.Linear(dim, dim, seed=i), nn.ReLU())
        ]
    )
    return IPUModule(model, dim, batch)


def external_inputs(graph, seed=0):
    """Deterministic values for every variable the program never writes."""
    written = graph.vertex_output_variables()
    for step in graph.program:
        if step.kind == "host_write":
            written.add(step.ref)
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(var.shape)
        for name, var in graph.variables.items()
        if name not in written
    }


class TestPlannedReports:
    def test_memory_report_gains_planned_fields(self):
        compiled = mlp_module().compile()
        plain = compile_graph(mlp_module().graph, GC200, check_fit=False)
        planned = compile_graph(
            mlp_module().graph, GC200, check_fit=False, plan_memory=True
        )
        assert not plain.memory.planned
        assert planned.memory.planned
        assert (
            planned.memory.peak_planned_bytes
            <= planned.memory.no_reuse_peak_tile_bytes
        )
        assert planned.memory.plan_saving_bytes > 0
        assert 0.0 < planned.memory.plan_saving_fraction < 1.0
        # The unplanned compile reports the same quantities as before.
        assert plain.memory.peak_tile_bytes == pytest.approx(
            planned.memory.no_reuse_peak_tile_bytes
        )
        assert compiled.memory.total_bytes == plain.memory.total_bytes

    def test_profile_carries_plan_columns(self):
        planned = compile_graph(
            mlp_module().graph, GC200, check_fit=False, plan_memory=True
        )
        profile = planned.profile()
        assert profile.planned
        assert profile.peak_tile_bytes < profile.no_reuse_peak_tile_bytes
        assert 0.0 < profile.plan_saving_fraction < 1.0

    def test_unplanned_compile_has_no_plan(self):
        plain = compile_graph(mlp_module().graph, GC200, check_fit=False)
        assert plain.plan is None
        assert plain.memory_plan() is None
        assert not plain.profile().planned

    def test_str_mentions_planned(self):
        planned = compile_graph(
            mlp_module().graph, GC200, check_fit=False, plan_memory=True
        )
        assert "planned" in str(planned.memory)


class TestFitGating:
    # A 20-stage copy chain on a shrunken 4-tile device: the no-reuse
    # footprint (21 variables) blows the budget, the planned one (input
    # + two ping-pong slots) fits.
    def setup_method(self):
        self.spec = dataclasses.replace(
            GC200, n_tiles=4, tile_memory_bytes=16 * KiB + 12_000
        )
        # Same shape as tests.ipu.test_liveness.chain_graph, built at the
        # shrunken device's 4-tile count.
        from repro.ipu.graph import Edge, Graph

        g = Graph(4)
        g.add_variable("x", (1000,))
        prev = "x"
        for i in range(20):
            name = f"t{i}"
            g.add_variable(name, (1000,))
            cs = g.add_compute_set(f"stage{i}")
            g.add_vertices(
                cs, "Copy", [0],
                inputs=[Edge(prev, 1000)],
                outputs=[Edge(name, 1000)],
            )
            prev = name
        self.graph = g

    def test_unplanned_compile_overflows(self):
        with pytest.raises(IPUOutOfMemoryError):
            compile_graph(self.graph, self.spec, check_fit=True)

    def test_planned_compile_fits(self):
        compiled = compile_graph(
            self.graph, self.spec, check_fit=True, plan_memory=True
        )
        assert compiled.memory.fits
        assert not compiled.memory.no_reuse_peak_tile_bytes <= (
            self.spec.usable_tile_memory
        )


class TestCacheIntegration:
    def test_key_differs_with_plan_memory(self):
        graph = mlp_module().graph
        assert compile_cache_key(graph, GC200) != compile_cache_key(
            graph, GC200, plan_memory=True
        )

    def test_unplanned_key_unchanged_by_flag_default(self):
        graph = mlp_module().graph
        assert compile_cache_key(graph, GC200) == compile_cache_key(
            graph, GC200, plan_memory=False
        )

    def test_planned_hit_roundtrips_footprints(self, tmp_path):
        graph = mlp_module().graph
        with caching(CompilationCache(path=tmp_path)) as cache:
            cold = compile_graph(
                graph, GC200, check_fit=False, plan_memory=True
            )
            warm = compile_graph(
                graph, GC200, check_fit=False, plan_memory=True
            )
            assert cache.stats.hits == 1
        assert warm.memory.planned
        assert warm.memory.peak_planned_bytes == pytest.approx(
            cold.memory.peak_planned_bytes
        )
        np.testing.assert_allclose(
            warm.memory.no_reuse_per_tile_bytes,
            cold.memory.no_reuse_per_tile_bytes,
        )

    def test_planned_hit_recomputes_plan_lazily(self, tmp_path):
        graph = mlp_module().graph
        with caching(CompilationCache(path=tmp_path)):
            cold = compile_graph(
                graph, GC200, check_fit=False, plan_memory=True
            )
            warm = compile_graph(
                graph, GC200, check_fit=False, plan_memory=True
            )
        assert warm.plan is None  # hit carries footprints, not the plan
        plan = warm.memory_plan()
        assert plan is not None
        assert plan.assignment == cold.memory_plan().assignment


class TestDegradedCompile:
    def test_planned_survives_tile_exclusion(self):
        graph = mlp_module().graph
        healthy = compile_graph(
            graph, GC200, check_fit=False, plan_memory=True
        )
        degraded = compile_graph(
            graph,
            GC200,
            check_fit=False,
            exclude_tiles={0, 1, 2},
            plan_memory=True,
        )
        assert degraded.memory.planned
        assert len(degraded.memory.per_tile_bytes) == GC200.n_tiles
        # Excluded tiles carry nothing; the fold conserves totals.
        assert all(
            degraded.memory.per_tile_bytes[t] == 0 for t in (0, 1, 2)
        )
        assert degraded.memory.per_tile_bytes.sum() == pytest.approx(
            healthy.memory.per_tile_bytes.sum()
        )
        assert (
            degraded.memory.no_reuse_per_tile_bytes.sum()
            == pytest.approx(
                healthy.memory.no_reuse_per_tile_bytes.sum()
            )
        )


class TestPlannedExecution:
    def test_bit_identical_to_unplanned(self):
        module = mlp_module()
        graph = module.graph
        inputs = external_inputs(graph)
        plain = compile_graph(graph, GC200, check_fit=False)
        planned = compile_graph(
            graph, GC200, check_fit=False, plan_memory=True
        )
        ref, _ = Executor(plain).run(inputs)
        out, _ = Executor(planned).run(inputs, check_aliasing=True)
        plan = planned.memory_plan()
        assert plan.n_shared_slots > 0  # the test exercises real aliasing
        for name in sorted(plan.surviving_variables()):
            assert np.array_equal(out[name], ref[name]), name

    def test_check_aliasing_detects_corrupt_plan(self):
        module = mlp_module(depth=2)
        graph = module.graph
        planned = compile_graph(
            graph, GC200, check_fit=False, plan_memory=True
        )
        good = planned.memory_plan()
        # Sabotage: merge two pinned weight slots so the second weight
        # aliases the first and never gets seeded.
        pinned = [s for s in good.slots if s.pinned and s.nbytes > 64]
        a, b = pinned[0], pinned[1]
        merged = MemorySlot(
            index=a.index,
            home_tile=a.home_tile,
            tile_span=a.tile_span,
            nbytes=max(a.nbytes, b.nbytes),
            n_elements=max(a.n_elements, b.n_elements),
            members=a.members + b.members,
            pinned=True,
        )
        slots = [
            merged if s.index == a.index else s
            for s in good.slots
            if s.index != b.index
        ]
        assignment = dict(good.assignment)
        for name in b.members:
            assignment[name] = a.index
        planned.plan = MemoryPlan(
            slots=slots,
            assignment=assignment,
            per_tile_bytes=good.per_tile_bytes,
            no_reuse_per_tile_bytes=good.no_reuse_per_tile_bytes,
        )
        with pytest.raises(RuntimeError, match="corrupted"):
            Executor(planned).run(
                external_inputs(graph), check_aliasing=True
            )

    def test_reused_inputs_not_seeded(self):
        # Seeding a reused variable would scribble over its slot-mate;
        # the executor must skip those writes and still match.
        module = mlp_module()
        graph = module.graph
        inputs = external_inputs(graph)
        planned = compile_graph(
            graph, GC200, check_fit=False, plan_memory=True
        )
        reused = planned.memory_plan().reused_variables()
        poisoned = dict(inputs)
        for name in reused:
            poisoned[name] = np.full(
                graph.variables[name].shape, 1e9
            )
        out, _ = Executor(planned).run(poisoned, check_aliasing=True)
        ref, _ = Executor(
            compile_graph(graph, GC200, check_fit=False)
        ).run(inputs)
        for name in sorted(planned.memory_plan().surviving_variables()):
            assert np.array_equal(out[name], ref[name])
