"""GPU device façade: dispatch matmuls/SpMMs to kernel models, check memory.

``GPUDevice`` is the high-level entry point the benchmarks use: it owns the
spec, validates that operands fit device memory (the Fig 6 effect where
``torch.nn.Linear`` "reaches its limit earlier" than the factorizations),
and runs numerics alongside cost accounting.
"""

from __future__ import annotations

import numpy as np

from repro.gpu import kernels
from repro.gpu.cusparse import coo_spmm_cost, csr_spmm_cost
from repro.gpu.kernels import KernelCost
from repro.gpu.machine import A30, GPUSpec
from repro.linalg.sparse import COOMatrix, CSRMatrix
from repro.obs import get_tracer
from repro.utils import format_bytes

__all__ = ["GPUOutOfMemoryError", "GPUDevice", "MATMUL_IMPLS"]


class GPUOutOfMemoryError(RuntimeError):
    """Raised when a workload does not fit in device memory."""


MATMUL_IMPLS = {
    "naive": kernels.naive_matmul_cost,
    "shmem": kernels.shmem_matmul_cost,
    "cublas_fp32": kernels.cublas_fp32_cost,
    "cublas_tf32": kernels.cublas_tf32_cost,
}


class GPUDevice:
    """A cost-model GPU with numpy-backed numerics."""

    def __init__(self, spec: GPUSpec = A30) -> None:
        self.spec = spec

    #: Virtual tracer track the simulated GPU kernel timeline lives on.
    TRACE_TRACK = "gpu"

    def _trace_kernel(self, cost: KernelCost) -> None:
        """Record one executed kernel on the simulated-GPU timeline."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add_span(
                cost.name,
                cost.time_s,
                self.TRACE_TRACK,
                category="kernel",
                flops=cost.flops,
                bytes_moved=cost.bytes_moved,
            )

    # -- memory ----------------------------------------------------------------

    def check_fit(self, nbytes: int, what: str = "workload") -> None:
        """Raise :class:`GPUOutOfMemoryError` if *nbytes* exceeds memory."""
        if nbytes > self.spec.memory_bytes:
            raise GPUOutOfMemoryError(
                f"{what} needs {format_bytes(nbytes)}, device has "
                f"{format_bytes(self.spec.memory_bytes)}"
            )

    def matmul_workspace_bytes(self, m: int, n: int, k: int) -> int:
        """Operands + output + cuBLAS workspace for one GEMM."""
        return 4 * (m * k + k * n + m * n) + 32 * 1024 * 1024

    # -- dense matmul ------------------------------------------------------------

    def matmul_cost(
        self, m: int, n: int, k: int, impl: str = "cublas_fp32"
    ) -> KernelCost:
        """Cost of one GEMM under the chosen implementation.

        ``impl`` is one of ``naive | shmem | cublas_fp32 | cublas_tf32 |
        pytorch_fp32 | pytorch_tf32``.
        """
        self.check_fit(self.matmul_workspace_bytes(m, n, k), f"matmul {impl}")
        if impl in MATMUL_IMPLS:
            return MATMUL_IMPLS[impl](self.spec, m, n, k)
        if impl == "pytorch_fp32":
            return kernels.pytorch_matmul_cost(
                self.spec, m, n, k, tensor_cores=False
            )
        if impl == "pytorch_tf32":
            return kernels.pytorch_matmul_cost(
                self.spec, m, n, k, tensor_cores=True
            )
        raise ValueError(f"unknown matmul impl {impl!r}")

    def matmul(
        self, a: np.ndarray, b: np.ndarray, impl: str = "cublas_fp32"
    ) -> tuple[np.ndarray, KernelCost]:
        """Execute a GEMM numerically and return (result, cost)."""
        m, k = a.shape
        k2, n = b.shape
        if k != k2:
            raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
        cost = self.matmul_cost(m, n, k, impl)
        self._trace_kernel(cost)
        return kernels.run_matmul(a, b), cost

    # -- sparse matmul ------------------------------------------------------------

    def spmm_cost(
        self, a: CSRMatrix | COOMatrix, n_cols: int
    ) -> KernelCost:
        """Cost of ``A_sparse @ B`` with B having *n_cols* columns."""
        m, k = a.shape
        # The device kernel stores fp32 values with int32 indices
        # (cuSPARSE's CsrMatDescr default), not the host's
        # float64/int64 arrays — pass the modelled widths explicitly.
        footprint = a.storage_bytes(value_bytes=4, index_bytes=4) + 4 * (
            k * n_cols + m * n_cols
        )
        self.check_fit(footprint, "spmm")
        if isinstance(a, CSRMatrix):
            return csr_spmm_cost(self.spec, m, k, n_cols, a.nnz)
        return coo_spmm_cost(self.spec, m, k, n_cols, a.nnz)

    # -- elementwise / streaming -------------------------------------------------

    def stream_cost(
        self, nbytes: int, name: str = "elementwise", passes: float = 1.0
    ) -> KernelCost:
        """Bandwidth-bound kernel cost (activations, bias adds, copies)."""
        return kernels.stream_cost(self.spec, nbytes, name=name, passes=passes)
