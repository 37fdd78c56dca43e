"""Property-based tests: randomly generated IPU graphs execute like numpy.

Builds random pipelines of elementwise / copy / reduce / matmul vertices,
runs them through the BSP executor, and checks against a direct numpy
evaluation of the same dataflow.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipu.compiler import compile_graph
from repro.ipu.executor import Executor
from repro.ipu.graph import Edge, Graph
from repro.ipu.machine import GC200

OPS = ["relu", "neg", "square"]


def build_random_pipeline(seed: int, n_stages: int, size: int):
    """A linear pipeline of randomly chosen elementwise stages."""
    rng = np.random.default_rng(seed)
    graph = Graph(GC200.n_tiles, name="prop")
    graph.add_variable("v0", (size,))
    ops = []
    for i in range(n_stages):
        op = OPS[rng.integers(0, len(OPS))]
        ops.append(op)
        graph.add_variable(f"v{i + 1}", (size,))
        cs = graph.add_compute_set(f"s{i}")
        # Split the vector across a random number of vertices/tiles.
        n_parts = int(rng.integers(1, min(4, size) + 1))
        bounds = np.linspace(0, size, n_parts + 1, dtype=int)
        for p in range(n_parts):
            lo, hi = int(bounds[p]), int(bounds[p + 1])
            if lo == hi:
                continue
            graph.add_vertices(
                cs, "ElementwiseUnary", [p],
                inputs=[Edge(f"v{i}", hi - lo, key=slice(lo, hi))],
                outputs=[Edge(f"v{i + 1}", hi - lo, key=slice(lo, hi))],
                params={"op": op},
            )
    return graph, ops


NUMPY_OPS = {
    "relu": lambda a: np.maximum(a, 0),
    "neg": lambda a: -a,
    "square": lambda a: a * a,
}


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 5),
    st.integers(1, 40),
)
def test_random_pipeline_matches_numpy(seed, n_stages, size):
    graph, ops = build_random_pipeline(seed, n_stages, size)
    compiled = compile_graph(graph, GC200)
    x = np.random.default_rng(seed).standard_normal(size)
    state, report = Executor(compiled).run({"v0": x})
    expected = x
    for op in ops:
        expected = NUMPY_OPS[op](expected)
    np.testing.assert_allclose(state[f"v{n_stages}"], expected, atol=1e-12)
    assert report.total_s > 0


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 24),
    st.integers(1, 24),
    st.integers(1, 24),
)
def test_random_matmul_shapes_match_numpy(seed, m, n, k):
    from repro.ipu.poplin import build_matmul_graph

    rng = np.random.default_rng(seed)
    graph, _ = build_matmul_graph(GC200, m, n, k)
    compiled = compile_graph(graph, GC200, check_fit=False)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    state, _ = Executor(compiled).run({"A": a, "B": b})
    np.testing.assert_allclose(state["C"], a @ b, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
def test_timing_monotone_in_pipeline_depth(seed, n_stages):
    g1, _ = build_random_pipeline(seed, n_stages, 32)
    g2, _ = build_random_pipeline(seed, n_stages + 2, 32)
    t1 = Executor(compile_graph(g1, GC200)).estimate().total_s
    t2 = Executor(compile_graph(g2, GC200)).estimate().total_s
    assert t2 > t1


def _step_tuples(report):
    return [
        (s.name, s.kind, s.compute_s, s.exchange_s, s.sync_s, s.host_s)
        for s in report.steps
    ]


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 4),
    st.integers(1, 30),
)
def test_estimate_and_run_report_identical_timings(seed, n_stages, size):
    """estimate() and run() agree step-for-step, traced or not."""
    from repro import obs

    graph, _ = build_random_pipeline(seed, n_stages, size)
    executor = Executor(compile_graph(graph, GC200))
    x = np.random.default_rng(seed).standard_normal(size)
    estimated = executor.estimate()
    _, executed = executor.run({"v0": x})
    assert _step_tuples(estimated) == _step_tuples(executed)
    assert estimated.total_s == executed.total_s
    with obs.tracing():
        traced_estimate = executor.estimate()
        _, traced_run = executor.run({"v0": x})
    assert _step_tuples(traced_estimate) == _step_tuples(estimated)
    assert _step_tuples(traced_run) == _step_tuples(executed)
    assert traced_estimate.total_s == estimated.total_s


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 30))
def test_compiler_per_tile_sums_to_total(seed, n_stages, size):
    graph, _ = build_random_pipeline(seed, n_stages, size)
    compiled = compile_graph(graph, GC200)
    mem = compiled.memory
    assert mem.per_tile_bytes.sum() == pytest.approx(
        mem.breakdown.total, rel=1e-9
    )
    assert mem.free_bytes <= GC200.n_tiles * GC200.usable_tile_memory
