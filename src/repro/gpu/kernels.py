"""GPU kernel cost models (naive, shared-memory, cuBLAS FP32/TF32).

Every kernel time is assembled from first principles:

    ``t = launch + max(flops / (peak * efficiency * quant * occupancy),
                       bytes / effective_bandwidth)``

* *quantisation* — CTA tiles pad ``m`` and ``n`` up to the kernel's tile
  shape; highly skewed shapes waste most of each tile, which is exactly the
  Fig 4 GPU collapse (and why the TF32 path, with its coarser tiles,
  degrades faster — paper Section 3.4).
* *occupancy* — small grids cannot fill all SMs; throughput ramps with the
  number of CTAs until ``ctas_per_sm_for_peak`` waves are resident.
* *bandwidth floor* — even a perfect GEMM must move its operands once.

Kernels also execute numerically (numpy) so the simulator's outputs are
checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.gpu.machine import GPUSpec
from repro.linalg.dense import matmul_bytes, matmul_flops

__all__ = [
    "KernelCost",
    "tile_quantisation",
    "occupancy",
    "naive_matmul_cost",
    "shmem_matmul_cost",
    "cublas_fp32_cost",
    "cublas_tf32_cost",
    "pytorch_matmul_cost",
    "stream_cost",
    "run_matmul",
]


@dataclass(frozen=True)
class KernelCost:
    """Cost of one kernel invocation."""

    name: str
    time_s: float
    flops: int
    bytes_moved: int

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s."""
        return self.flops / self.time_s / 1e9 if self.time_s > 0 else 0.0


def tile_quantisation(m: int, n: int, tile: tuple[int, int]) -> float:
    """Useful fraction of the padded CTA grid (1.0 = perfectly aligned)."""
    tm, tn = tile
    padded = math.ceil(m / tm) * tm * math.ceil(n / tn) * tn
    return (m * n) / padded


def occupancy(m: int, n: int, tile: tuple[int, int], spec: GPUSpec) -> float:
    """Throughput fraction from grid size (SM fill ramp).

    cuBLAS recovers some occupancy on small output grids by splitting the
    k dimension across extra CTAs (up to ``max_split_k``); the ramp is
    therefore over ``ctas * split_k``.
    """
    tm, tn = tile
    ctas = math.ceil(m / tm) * math.ceil(n / tn)
    needed = spec.sm_count * spec.ctas_per_sm_for_peak
    if ctas < needed:
        split = min(spec.max_split_k, math.ceil(needed / ctas))
        ctas *= split
    return min(1.0, ctas / needed)


def _gemm_cost(
    name: str,
    spec: GPUSpec,
    m: int,
    n: int,
    k: int,
    peak: float,
    efficiency: float,
    tile: tuple[int, int],
) -> KernelCost:
    flops = matmul_flops(m, n, k)
    nbytes = matmul_bytes(m, n, k)
    quant = tile_quantisation(m, n, tile)
    occ = occupancy(m, n, tile, spec)
    rate = peak * efficiency * quant * occ
    compute_s = flops / rate
    memory_s = nbytes / spec.effective_bandwidth
    time_s = spec.kernel_launch_s + max(compute_s, memory_s)
    return KernelCost(name=name, time_s=time_s, flops=flops, bytes_moved=nbytes)


def naive_matmul_cost(spec: GPUSpec, m: int, n: int, k: int) -> KernelCost:
    """One-thread-per-output-element kernel: DRAM-traffic bound.

    Each output needs a k-length row and column walk; caches recover a
    ``naive_reuse`` factor of the ``2 m n k`` element reads.
    """
    flops = matmul_flops(m, n, k)
    nbytes = int(4 * (2 * m * n * k / spec.naive_reuse + m * n))
    time_s = spec.kernel_launch_s + nbytes / spec.effective_bandwidth
    return KernelCost("naive", time_s, flops, nbytes)


def shmem_matmul_cost(spec: GPUSpec, m: int, n: int, k: int) -> KernelCost:
    """Shared-memory tiled kernel: compute-bound at modest efficiency."""
    return _gemm_cost(
        "shmem", spec, m, n, k,
        peak=spec.peak_flops_fp32,
        efficiency=spec.shmem_efficiency,
        tile=(32, 32),
    )


def cublas_fp32_cost(spec: GPUSpec, m: int, n: int, k: int) -> KernelCost:
    """cuBLAS SGEMM: near-peak with FP32 CTA-tile quantisation."""
    return _gemm_cost(
        "cublas_fp32", spec, m, n, k,
        peak=spec.peak_flops_fp32,
        efficiency=spec.cublas_fp32_efficiency,
        tile=spec.fp32_tile,
    )


def cublas_tf32_cost(spec: GPUSpec, m: int, n: int, k: int) -> KernelCost:
    """cuBLAS TF32 tensor-core GEMM: higher peak, coarser tiles.

    The k dimension additionally quantises to the MMA depth (8), so thin-k
    shapes lose tensor-core efficiency — part of the structural
    prerequisites the paper's Section 3.4 discusses.
    """
    k_quant = k / (math.ceil(k / 8) * 8)
    cost = _gemm_cost(
        "cublas_tf32", spec, m, n, k,
        peak=spec.peak_flops_tf32,
        efficiency=spec.cublas_tf32_efficiency * k_quant,
        tile=spec.tf32_tile,
    )
    return cost


def pytorch_matmul_cost(
    spec: GPUSpec, m: int, n: int, k: int, tensor_cores: bool
) -> KernelCost:
    """torch.mm through the framework: cuBLAS plus dispatch overhead."""
    base = (
        cublas_tf32_cost(spec, m, n, k)
        if tensor_cores
        else cublas_fp32_cost(spec, m, n, k)
    )
    return KernelCost(
        name=f"pytorch_{'tf32' if tensor_cores else 'fp32'}",
        time_s=base.time_s + spec.framework_overhead_s,
        flops=base.flops,
        bytes_moved=base.bytes_moved,
    )


def stream_cost(
    spec: GPUSpec, nbytes: int, name: str = "stream", passes: float = 1.0
) -> KernelCost:
    """A bandwidth-bound elementwise/copy kernel over *nbytes* (x passes);
    it does no FLOPs."""
    time_s = spec.kernel_launch_s + passes * nbytes / spec.effective_bandwidth
    return KernelCost(name, time_s, 0, int(passes * nbytes))


def run_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Numeric execution shared by every GEMM kernel model."""
    return np.asarray(a) @ np.asarray(b)
