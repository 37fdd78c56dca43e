"""popsparse-style sparse x dense matmul on the IPU simulator.

Rows of the CSR operand are partitioned across tiles balanced by *nonzero
count* (not row count) so no tile straggles; each tile's vertex gathers the
dense-operand rows its column indices touch over the exchange and emits its
output rows locally.  The COO path partitions by row ranges instead (COO
carries no row pointer to balance with), one of the structural reasons CSR
wins on the IPU (paper Note 2).
"""

from __future__ import annotations

import math

import numpy as np

from repro.ipu.compiler import compile_graph
from repro.ipu.executor import ExecutionReport, Executor
from repro.ipu.graph import Edge, Graph
from repro.ipu.machine import IPUSpec
from repro.linalg.sparse import COOMatrix, CSRMatrix

__all__ = ["build_spmm_graph", "spmm_report"]


def _csr_row_partition(csr: CSRMatrix, n_parts: int) -> list[tuple[int, int]]:
    """Split rows into contiguous ranges with near-equal nnz."""
    m = csr.shape[0]
    n_parts = min(n_parts, m)
    target = csr.nnz / n_parts if n_parts else 0
    ranges: list[tuple[int, int]] = []
    start = 0
    for part in range(n_parts):
        if part == n_parts - 1:
            ranges.append((start, m))
            break
        # Advance until this part holds ~ (part+1) * target nnz.
        goal = (part + 1) * target
        end = int(np.searchsorted(csr.indptr, goal, side="left"))
        end = max(start + 1, min(end, m - (n_parts - part - 1)))
        ranges.append((start, end))
        start = end
    return ranges


def build_spmm_graph(
    spec: IPUSpec,
    a: CSRMatrix | COOMatrix,
    n_cols: int,
) -> Graph:
    """Graph computing ``C = A_sparse @ B`` for dense ``B (k, n_cols)``."""
    if n_cols <= 0:
        raise ValueError(f"n_cols must be positive, got {n_cols}")
    m, k = a.shape
    graph = Graph(spec.n_tiles, name="spmm")
    graph.add_variable("B", (k, n_cols))
    graph.add_variable("C", (m, n_cols))
    # Index/value storage is part of the device footprint.
    graph.add_variable("A_values", (a.nnz,))
    if isinstance(a, CSRMatrix):
        graph.add_variable("A_indices", (a.nnz,))
        graph.add_variable("A_indptr", (m + 1,))
    else:
        graph.add_variable("A_rows", (a.nnz,))
        graph.add_variable("A_cols", (a.nnz,))

    cs = graph.add_compute_set("spmm/spmm")
    if isinstance(a, CSRMatrix):
        ranges = np.array(_csr_row_partition(a, spec.n_tiles), dtype=np.int64)
        r0, r1 = ranges[:, 0], ranges[:, 1]
        lo, hi = a.indptr[r0], a.indptr[r1]
        nnz = hi - lo
        # Vertex t reads the B rows of the distinct column indices among
        # its nonzeros [lo_t, hi_t); the parts tile [0, nnz) in order.
        unique_cols = _distinct_per_part(nnz, a.indices)
        graph.add_vertices(
            cs,
            "SparseRowDotCSR",
            np.arange(len(ranges)),
            inputs=[
                Edge("B", unique_cols * n_cols),
                Edge("A_values", nnz, local=True),
            ],
            outputs=[
                Edge(
                    "C",
                    (r1 - r0) * n_cols,
                    key=(slice(r0, r1), slice(0, n_cols)),
                    local=True,
                )
            ],
            params={
                "nnz": nnz,
                "n_cols": n_cols,
                "row0": r0,
                "row1": r1,
                "csr": (a.indptr, a.indices, a.data),
            },
        )
    else:
        n_parts = min(spec.n_tiles, m)
        rows_per = math.ceil(m / n_parts)
        r0 = np.arange(n_parts) * rows_per
        r1 = np.minimum(r0 + rows_per, m)
        order = np.argsort(a.row, kind="stable")
        rows_sorted = a.row[order]
        lo = np.searchsorted(rows_sorted, r0, side="left")
        hi = np.searchsorted(rows_sorted, r1, side="left")
        nnz = hi - lo
        unique_cols = _distinct_per_part(nnz, a.col[order])
        graph.add_vertices(
            cs,
            "SparseDotCOO",
            np.arange(n_parts),
            inputs=[
                Edge("B", unique_cols * n_cols),
                Edge("A_values", nnz, local=True),
            ],
            outputs=[
                Edge(
                    "C",
                    (r1 - r0) * n_cols,
                    key=(slice(r0, r1), slice(0, n_cols)),
                    local=True,
                )
            ],
            params={
                "nnz": nnz,
                "n_cols": n_cols,
                "row0": r0,
                "n_rows": r1 - r0,
                "lo": lo,
                "hi": hi,
                "coo": (rows_sorted, a.col[order], a.data[order]),
            },
        )
    return graph


def _distinct_per_part(sizes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Distinct entries in each of the consecutive parts of *values*."""
    part = np.repeat(np.arange(len(sizes)), sizes)
    pairs = np.unique(np.stack([part, values[: len(part)]]), axis=1)
    return np.bincount(pairs[0], minlength=len(sizes))


def spmm_report(
    spec: IPUSpec,
    a: CSRMatrix | COOMatrix,
    n_cols: int,
    check_fit: bool = True,
) -> ExecutionReport:
    """Compile and time ``A_sparse @ B``; convenience wrapper for benches."""
    graph = build_spmm_graph(spec, a, n_cols)
    compiled = compile_graph(graph, spec, check_fit=check_fit)
    return Executor(compiled).estimate()
