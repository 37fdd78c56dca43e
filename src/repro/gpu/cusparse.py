"""cuSPARSE-style sparse x dense matmul cost model.

CSR SpMM on a GPU is gather-bound: per nonzero the kernel reads an index
pair and a segment of the dense operand, with limited cache reuse.  The
model caps throughput at ``cusparse_flops_per_byte x effective_bandwidth``
(empirically ~1 FLOP per DRAM byte for CSR SpMM) and at a small fraction of
FP32 peak; COO pays an extra efficiency penalty (second index array +
atomic accumulation), reproducing the paper's Note 2 (CSR > COO on both
devices).
"""

from __future__ import annotations

from repro.gpu.kernels import KernelCost
from repro.gpu.machine import GPUSpec

__all__ = ["csr_spmm_cost", "coo_spmm_cost"]


def csr_spmm_cost(
    spec: GPUSpec, m: int, k: int, n: int, nnz: int
) -> KernelCost:
    """Cost of ``C (m x n) = A_csr (m x k, nnz) @ B (k x n)``."""
    if nnz < 0:
        raise ValueError(f"nnz must be >= 0, got {nnz}")
    flops = 2 * nnz * n
    # Traffic: values+indices once, a (cached) row of B per nonzero, C once.
    nbytes = nnz * 8 + nnz * 4 * min(n, 32) + 4 * m * n
    rate = min(
        spec.cusparse_flops_per_byte * spec.effective_bandwidth,
        0.25 * spec.peak_flops_fp32,
    )
    time_s = spec.kernel_launch_s + max(
        flops / rate if rate > 0 else 0.0,
        nbytes / spec.effective_bandwidth,
    )
    return KernelCost("cusparse_csr", time_s, flops, nbytes)


def coo_spmm_cost(
    spec: GPUSpec, m: int, k: int, n: int, nnz: int
) -> KernelCost:
    """COO variant: extra index traffic and atomic scatter-adds."""
    base = csr_spmm_cost(spec, m, k, n, nnz)
    launch = spec.kernel_launch_s
    return KernelCost(
        "cusparse_coo",
        launch + (base.time_s - launch) / spec.coo_efficiency,
        base.flops,
        base.bytes_moved + nnz * 4,
    )

