"""Property: planned execution is bit-identical to unplanned execution.

The memory planner aliases staging buffers whose live ranges are
provably disjoint, so running the same program through slot-aliased
buffers must produce exactly the same bytes as running it with private
buffers.  This sweeps all six weight parameterisations of the paper
(baseline dense, low-rank, butterfly, pixelfly, fastfood, circulant),
whose lowerings exercise very different graph shapes: ping-ponged stage
pyramids, block-sparse partitions, permutation copies, fused FFTs.

The structured codelets (ButterflyStage, BlockSparseMatMul, FWHTStage,
FFTStage) are estimate-only in the simulator; for these tests they get
deterministic numeric test doubles so the full program executes.  The
doubles write input-dependent values over the whole output variable,
which makes any unsound aliasing (a write landing in a buffer someone
still reads) immediately visible as divergence.
"""

import contextlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.ipu.compiler import compile_graph
from repro.ipu.executor import Executor
from repro.ipu.machine import GC200
from repro.ipu.poptorch import IPUModule
from repro.ipu.vertices import CODELETS, Codelet, register_codelet

ESTIMATE_ONLY = (
    "ButterflyStage",
    "BlockSparseMatMul",
    "FWHTStage",
    "FFTStage",
)


def _double_execute(vertex, state):
    """Deterministic stand-in: outputs are a function of all inputs."""
    acc = 0.0
    for edge in vertex.inputs:
        acc += float(np.sum(state[edge.var]))
    for edge in vertex.outputs:
        out = state[edge.var]
        out[...] = np.tanh(acc / (1.0 + out.size)) + 1e-3 * vertex.tile


@contextlib.contextmanager
def codelet_doubles():
    """Temporarily make the estimate-only codelets executable."""
    originals = {name: CODELETS[name] for name in ESTIMATE_ONLY}
    try:
        for name, codelet in originals.items():
            register_codelet(
                Codelet(name, codelet.cycles, _double_execute)
            )
        yield
    finally:
        for codelet in originals.values():
            register_codelet(codelet)


def make_layer(method: str, dim: int, seed: int):
    if method == "baseline":
        return nn.Linear(dim, dim, seed=seed)
    if method == "lowrank":
        return nn.LowRankLinear(dim, dim, rank=4, seed=seed)
    if method == "butterfly":
        return nn.ButterflyLinear(dim, dim, seed=seed)
    if method == "pixelfly":
        return nn.PixelflyLinear(dim, block_size=dim // 4, seed=seed)
    if method == "fastfood":
        return nn.FastfoodLinear(dim, seed=seed)
    if method == "circulant":
        return nn.CirculantLinear(dim, seed=seed)
    raise ValueError(method)


METHODS = [
    "baseline",
    "lowrank",
    "butterfly",
    "pixelfly",
    "fastfood",
    "circulant",
]


def external_inputs(graph, seed):
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


@given(
    method=st.sampled_from(METHODS),
    dim=st.sampled_from([16, 32]),
    batch=st.sampled_from([4, 8]),
    seed=st.integers(min_value=0, max_value=2**16 - 1),
)
@settings(max_examples=24, deadline=None)
def test_planned_execution_bit_identical(method, dim, batch, seed):
    layer = make_layer(method, dim, seed % 13)
    module = IPUModule(layer, dim, batch)
    graph = module.graph
    inputs = external_inputs(graph, seed)
    planned = compile_graph(
        graph, GC200, check_fit=False, plan_memory=True
    )
    unplanned = compile_graph(graph, GC200, check_fit=False)
    with codelet_doubles():
        out, _ = Executor(planned).run(inputs, check_aliasing=True)
        ref, _ = Executor(unplanned).run(inputs)
    plan = planned.memory_plan()
    for name in sorted(plan.surviving_variables()):
        assert np.array_equal(out[name], ref[name]), (method, name)


@given(
    method=st.sampled_from(METHODS),
    dim=st.sampled_from([16, 32, 64]),
    batch=st.sampled_from([4, 16]),
)
@settings(max_examples=30, deadline=None)
def test_planned_peak_never_exceeds_no_reuse(method, dim, batch):
    layer = make_layer(method, dim, 0)
    module = IPUModule(layer, dim, batch)
    compiled = compile_graph(
        module.graph, GC200, check_fit=False, plan_memory=True
    )
    mem = compiled.memory
    assert mem.peak_planned_bytes <= mem.no_reuse_peak_tile_bytes + 1e-9
    assert np.all(
        compiled.memory_plan().per_tile_bytes
        <= compiled.memory_plan().no_reuse_per_tile_bytes + 1e-9
    )


def test_fig5_planner_sweep_records_reuse_saving(monkeypatch):
    # The fig5 headroom sweep (shrunk to one depth for test runtime)
    # must report a nonzero reclaimed fraction.
    from repro.experiments import fig5

    monkeypatch.setattr(fig5, "planner_depths", lambda: [4])
    monkeypatch.setattr(fig5, "PLANNER_DIM", 256)
    monkeypatch.setattr(fig5, "PLANNER_BATCH", 256)
    rows = fig5.planner_run()
    assert rows[0].reclaimed_fraction > 0.0
    assert (
        rows[0].planned.peak_tile_bytes
        < rows[0].unplanned.peak_tile_bytes
    )
