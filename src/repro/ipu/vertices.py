"""Codelet registry: cycle models and numeric executors.

Each codelet couples a *cycle cost function* (architecture-derived, used by
the executor's timing) with an optional *execute function* (numpy numerics,
used to validate the simulator against ground truth).  Codelets without an
execute function can still be compiled and timed — the Fig 6/Fig 7 layer
sweeps only need costs, while the Table 2 matmul paths are fully executable.

Cost functions are evaluated per batch of vertices: they take a
:class:`~repro.ipu.graph.VertexBatch` (param and port ``n_elements``
columns) and return one cycle count per vertex, or a scalar that
broadcasts.  Written with numpy operators only, the same function also
costs a single :class:`~repro.ipu.graph.Vertex` record (scalar fields).
Execute functions run one vertex record at a time.

Cycle models follow one of three rate classes from the machine spec:

* **AMP** — dense matmul partials; ``macs / amp_macs_per_cycle`` plus a
  pipeline-fill overhead.  This is the only accelerated path, mirroring the
  real AMP units (the paper's explanation for butterfly's modest IPU gains).
* **vector** — regular elementwise work at ``vector_flops_per_cycle``.
* **gather** — strided/indirect access patterns (butterfly stages, block
  gather/scatter, sparse row dots) paying ``gather_cycles_per_element``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.ipu.machine import IPUSpec
from repro.linalg.sparse import COOMatrix, CSRMatrix

if TYPE_CHECKING:
    from repro.ipu.graph import Vertex, VertexBatch

__all__ = [
    "Codelet",
    "CODELETS",
    "register_codelet",
    "batch_cycles",
]

#: Pipeline fill / loop setup overhead charged once per vertex invocation.
VERTEX_OVERHEAD_CYCLES = 60

#: Effective flops/cycle/tile of block-sparse matmul codelets lowered from
#: plain PyTorch (gather + einsum + scatter; no AMP path) — calibrated to the
#: throughput class Jia et al. report for generic vectorised vertices with
#: indirect addressing.
BLOCK_FLOPS_PER_CYCLE = 0.4


@dataclass(frozen=True)
class Codelet:
    """A codelet: cost model plus optional numeric implementation."""

    name: str
    cycles: Callable[[VertexBatch | Vertex, IPUSpec], Any]
    execute: Callable[[Vertex, dict[str, np.ndarray]], None] | None = None
    #: Cost params every vertex must carry; ``Graph.add_vertices`` rejects
    #: batches that lack one.
    params: tuple[str, ...] = ()


CODELETS: dict[str, Codelet] = {}


def register_codelet(codelet: Codelet) -> Codelet:
    """Add a codelet to the registry (overwrites same-name entries)."""
    CODELETS[codelet.name] = codelet
    return codelet


def _lookup(name: str) -> Codelet:
    codelet = CODELETS.get(name)
    if codelet is None:
        raise KeyError(f"unknown codelet {name!r}")
    return codelet


def batch_cycles(batch: VertexBatch, spec: IPUSpec) -> np.ndarray:
    """Cycle cost of every vertex of *batch* on *spec* (float64 column)."""
    cycles = np.empty(batch.n, dtype=np.float64)
    cycles[:] = _lookup(batch.codelet).cycles(batch, spec)
    return cycles


# ---------------------------------------------------------------------------
# Dense matmul partials
# ---------------------------------------------------------------------------


_MATMUL_PARAMS = ("m", "n", "k")


def _matmul_dims(vertex):
    try:
        return vertex.params["m"], vertex.params["n"], vertex.params["k"]
    except KeyError as exc:
        raise KeyError(
            f"{vertex.codelet} vertex requires m/n/k params"
        ) from exc


def _amp_cycles(vertex, spec: IPUSpec):
    m, n, k = _matmul_dims(vertex)
    macs = m * n * k
    # Short accumulation chains underfill the AMP pipeline.
    efficiency = np.minimum(1.0, k / 16.0)
    return VERTEX_OVERHEAD_CYCLES + macs / (
        spec.amp_macs_per_cycle * np.maximum(efficiency, 1e-3)
    )


def _execute_matmul_partial(
    vertex: Vertex, state: dict[str, np.ndarray]
) -> None:
    a_edge, b_edge = vertex.inputs[0], vertex.inputs[1]
    out_edge = vertex.outputs[0]
    a = state[a_edge.var][a_edge.key]
    b = state[b_edge.var][b_edge.key]
    if vertex.params.get("accumulate"):
        state[out_edge.var][out_edge.key] += a @ b
    else:
        state[out_edge.var][out_edge.key] = a @ b


register_codelet(
    Codelet(
        "MatMulPartialAMP", _amp_cycles, _execute_matmul_partial,
        _MATMUL_PARAMS,
    )
)


def _scalar_matmul_cycles(vertex, spec: IPUSpec):
    m, n, k = _matmul_dims(vertex)
    return VERTEX_OVERHEAD_CYCLES + 2.0 * m * n * k / spec.scalar_flops_per_cycle


register_codelet(
    Codelet(
        "MatMulPartialScalar", _scalar_matmul_cycles,
        _execute_matmul_partial, _MATMUL_PARAMS,
    )
)


def _vector_matmul_cycles(vertex, spec: IPUSpec):
    # Hand-vectorised but non-AMP inner loop (the paper's blocked variant:
    # a custom codelet cannot reach the AMP pipeline).
    m, n, k = _matmul_dims(vertex)
    return VERTEX_OVERHEAD_CYCLES + 2.0 * m * n * k / spec.vector_flops_per_cycle


register_codelet(
    Codelet(
        "MatMulPartialVector", _vector_matmul_cycles,
        _execute_matmul_partial, _MATMUL_PARAMS,
    )
)


# ---------------------------------------------------------------------------
# Reductions, copies, elementwise
# ---------------------------------------------------------------------------


def _reduce_cycles(vertex, spec: IPUSpec):
    n_inputs = max(1, len(vertex.inputs))
    elements = vertex.outputs[0].n_elements
    return VERTEX_OVERHEAD_CYCLES + (
        elements * n_inputs / spec.vector_flops_per_cycle
    )


def _execute_reduce_add(
    vertex: Vertex, state: dict[str, np.ndarray]
) -> None:
    out_edge = vertex.outputs[0]
    acc = None
    for edge in vertex.inputs:
        chunk = state[edge.var][edge.key]
        acc = chunk.copy() if acc is None else acc + chunk
    state[out_edge.var][out_edge.key] = acc


register_codelet(Codelet("ReduceAdd", _reduce_cycles, _execute_reduce_add))


def _copy_cycles(vertex, spec: IPUSpec):
    elements = vertex.outputs[0].n_elements
    # SRAM copy: one 4-byte element per cycle per worker context.
    return VERTEX_OVERHEAD_CYCLES + elements


def _execute_copy(vertex: Vertex, state: dict[str, np.ndarray]) -> None:
    src, dst = vertex.inputs[0], vertex.outputs[0]
    s = state[src.var][src.key]
    d = state[dst.var][dst.key]
    if s.shape == d.shape:
        d[...] = s
        return
    # Pad/slice copy between differently-shaped activations (rectangular
    # butterfly lowerings): the overlapping prefix of the feature axis is
    # copied and any padding is zero-filled, matching the layer-level
    # zero-pad / truncate algebra.
    width = min(s.shape[-1], d.shape[-1])
    d[...] = 0.0
    d[..., :width] = s[..., :width]


register_codelet(Codelet("Copy", _copy_cycles, _execute_copy))


_UNARY_OPS = {
    "relu": lambda a: np.maximum(a, 0),
    "neg": lambda a: -a,
    "square": lambda a: a * a,
}


def _elementwise_cycles(vertex, spec: IPUSpec):
    elements = vertex.outputs[0].n_elements
    return VERTEX_OVERHEAD_CYCLES + elements / spec.vector_flops_per_cycle


def _execute_unary(vertex: Vertex, state: dict[str, np.ndarray]) -> None:
    op = _UNARY_OPS[vertex.params["op"]]
    src, dst = vertex.inputs[0], vertex.outputs[0]
    state[dst.var][dst.key] = op(state[src.var][src.key])


register_codelet(
    Codelet("ElementwiseUnary", _elementwise_cycles, _execute_unary)
)


_BINARY_OPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
}


def _execute_binary(vertex: Vertex, state: dict[str, np.ndarray]) -> None:
    op = _BINARY_OPS[vertex.params["op"]]
    a, b = vertex.inputs[0], vertex.inputs[1]
    dst = vertex.outputs[0]
    state[dst.var][dst.key] = op(state[a.var][a.key], state[b.var][b.key])


register_codelet(
    Codelet("ElementwiseBinary", _elementwise_cycles, _execute_binary)
)


# ---------------------------------------------------------------------------
# Sparse matmul (popsparse-style)
# ---------------------------------------------------------------------------


#: Output columns a popsparse-style SpMM codelet processes per panel pass.
SPMM_PANEL_COLS = 16

#: Per-panel setup cycles: panel sync, exchange program switch, pointer
#: rewind.  Wide outputs pay a long chain of small panel passes — the fixed
#: cost that makes popsparse throughput *rise* with density (more
#: arithmetic amortising the same panel chain), reproducing the paper's
#: Table 2 pattern where the 90 %-sparse column achieves a higher actual
#: FLOP rate than the 99 %-sparse one.
SPMM_PANEL_OVERHEAD_CYCLES = 1700


def _sparse_row_cycles(vertex, spec: IPUSpec):
    nnz = vertex.params["nnz"]
    n_cols = vertex.params["n_cols"]
    # Panel-wise SpMM: per SPMM_PANEL_COLS-wide output panel, restream the
    # index array (2 cycles/nnz) on top of the panel setup; per nonzero an
    # indirect B-row gather plus a vectorised axpy over the panel.
    panels = np.ceil(n_cols / SPMM_PANEL_COLS)
    panel_cost = panels * (SPMM_PANEL_OVERHEAD_CYCLES + 2.0 * nnz)
    gather = nnz * spec.gather_cycles_per_element
    flops = 2.0 * nnz * n_cols / spec.vector_flops_per_cycle
    return VERTEX_OVERHEAD_CYCLES + panel_cost + gather + flops


def _execute_sparse_row_dot(
    vertex: Vertex, state: dict[str, np.ndarray]
) -> None:
    # The whole CSR operand is one broadcast param; the vertex owns rows
    # [row0, row1) and multiplies them with the host CSR kernel.
    indptr, indices, data = vertex.params["csr"]
    r0, r1 = vertex.params["row0"], vertex.params["row1"]
    lo, hi = int(indptr[r0]), int(indptr[r1])
    b_edge, out_edge = vertex.inputs[0], vertex.outputs[0]
    b = state[b_edge.var][b_edge.key] if b_edge.key else state[b_edge.var]
    own = CSRMatrix(
        indptr[r0 : r1 + 1] - lo, indices[lo:hi], data[lo:hi],
        (r1 - r0, b.shape[0]),
    )
    state[out_edge.var][out_edge.key] = own.matmul(b)


register_codelet(
    Codelet(
        "SparseRowDotCSR", _sparse_row_cycles, _execute_sparse_row_dot,
        ("nnz", "n_cols"),
    )
)


def _sparse_coo_cycles(vertex, spec: IPUSpec):
    nnz = vertex.params["nnz"]
    n_cols = vertex.params["n_cols"]
    # COO pays two index loads per nonzero and scatter-adds its output
    # (read-modify-write), hence the higher per-nnz cost vs CSR — the
    # paper's Note 2 (CSR beats COO on both devices).  Same panel chain as
    # the CSR codelet, with both index arrays restreamed.
    panels = np.ceil(n_cols / SPMM_PANEL_COLS)
    panel_cost = panels * (SPMM_PANEL_OVERHEAD_CYCLES + 4.0 * nnz)
    gather = nnz * (2.0 * spec.gather_cycles_per_element)
    flops = 3.0 * nnz * n_cols / spec.vector_flops_per_cycle
    return VERTEX_OVERHEAD_CYCLES + panel_cost + gather + flops


def _execute_sparse_coo(vertex: Vertex, state: dict[str, np.ndarray]) -> None:
    # The row-sorted COO operand is one broadcast param; the vertex owns
    # entries [lo, hi), which fall in rows [row0, row0 + n_rows), and
    # multiplies them with the host COO kernel.
    rows, cols, data = vertex.params["coo"]
    lo, hi = vertex.params["lo"], vertex.params["hi"]
    b_edge, out_edge = vertex.inputs[0], vertex.outputs[0]
    b = state[b_edge.var][b_edge.key] if b_edge.key else state[b_edge.var]
    own = COOMatrix(
        rows[lo:hi] - vertex.params["row0"], cols[lo:hi], data[lo:hi],
        (vertex.params["n_rows"], b.shape[0]),
    )
    state[out_edge.var][out_edge.key] = own.matmul(b)


register_codelet(
    Codelet(
        "SparseDotCOO", _sparse_coo_cycles, _execute_sparse_coo,
        ("nnz", "n_cols"),
    )
)


# ---------------------------------------------------------------------------
# Structured-layer codelets (estimate-only unless noted)
# ---------------------------------------------------------------------------


def _butterfly_stage_cycles(vertex, spec: IPUSpec):
    # One butterfly level over `n_pairs` (pair, batch-row) elements: loads
    # two strided activations and four twiddles, 8 flops, two strided
    # stores — indirect addressing dominates, hence the gather rate.
    n_pairs = vertex.params["n_pairs"]
    return VERTEX_OVERHEAD_CYCLES + (
        2.0 * n_pairs * spec.gather_cycles_per_element
    )


register_codelet(
    Codelet("ButterflyStage", _butterfly_stage_cycles, params=("n_pairs",))
)


def _block_sparse_cycles(vertex, spec: IPUSpec):
    flops = vertex.params["flops"]
    return VERTEX_OVERHEAD_CYCLES + flops / BLOCK_FLOPS_PER_CYCLE


register_codelet(
    Codelet("BlockSparseMatMul", _block_sparse_cycles, params=("flops",))
)


def _fwht_stage_cycles(vertex, spec: IPUSpec):
    # Add/sub over strided pairs: the same strided-access class as a
    # butterfly level (no twiddle loads, but the PyTorch per-stage lowering
    # still materialises intermediates).
    elements = vertex.params["elements"]
    return VERTEX_OVERHEAD_CYCLES + (
        elements * spec.gather_cycles_per_element
    )


register_codelet(
    Codelet("FWHTStage", _fwht_stage_cycles, params=("elements",))
)


def _fft_stage_cycles(vertex, spec: IPUSpec):
    # Complex butterfly stage: ~10 real flops per pair plus strided access.
    n_pairs = vertex.params["n_pairs"]
    return VERTEX_OVERHEAD_CYCLES + (
        n_pairs * (10.0 / spec.vector_flops_per_cycle
                   + 2.0 * spec.gather_cycles_per_element)
    )


register_codelet(
    Codelet("FFTStage", _fft_stage_cycles, params=("n_pairs",))
)


def _diag_scale_cycles(vertex, spec: IPUSpec):
    elements = vertex.outputs[0].n_elements
    return VERTEX_OVERHEAD_CYCLES + elements / spec.vector_flops_per_cycle


def _execute_diag_scale(
    vertex: Vertex, state: dict[str, np.ndarray]
) -> None:
    x_edge, d_edge = vertex.inputs[0], vertex.inputs[1]
    dst = vertex.outputs[0]
    x = state[x_edge.var][x_edge.key] if x_edge.key else state[x_edge.var]
    d = state[d_edge.var][d_edge.key] if d_edge.key else state[d_edge.var]
    state[dst.var][dst.key] = x * d


register_codelet(
    Codelet("DiagScale", _diag_scale_cycles, _execute_diag_scale)
)
