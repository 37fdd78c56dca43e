"""GPU machine model (NVIDIA A30, the paper's comparison device).

Constants trace to the paper's Table 1 / the A30 datasheet.  Efficiency and
overhead parameters are explicit fields (documented provenance) so the
ablation benchmarks can sweep them; none of the Table 2 / Fig 4 / Fig 6
outputs are hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils import GiB

__all__ = ["GPUSpec", "A30"]


@dataclass(frozen=True)
class GPUSpec:
    """Architecture description of a data-centre GPU."""

    name: str
    #: Streaming multiprocessors.
    sm_count: int
    #: Boost clock, Hz.
    clock_hz: float
    #: Peak FP32 FLOP/s (CUDA cores).
    peak_flops_fp32: float
    #: Peak TF32 FLOP/s (tensor cores, dense).
    peak_flops_tf32: float
    #: Off-chip (HBM) bandwidth, bytes/s.
    dram_bandwidth: float
    #: Device memory, bytes.
    memory_bytes: int
    #: Kernel-launch + driver overhead per kernel, seconds.
    kernel_launch_s: float
    #: Extra per-op framework overhead when driven from PyTorch, seconds.
    framework_overhead_s: float
    #: cuBLAS sustained efficiency for large square FP32 GEMM.
    cublas_fp32_efficiency: float
    #: cuBLAS/TC sustained efficiency for large square TF32 GEMM.
    cublas_tf32_efficiency: float
    #: CTA tile of the FP32 GEMM kernel (rows x cols) — quantisation
    #: granularity for skewed shapes.
    fp32_tile: tuple[int, int] = (128, 64)
    #: CTA tile of the TF32 tensor-core GEMM kernel: coarser, so TC
    #: "performance degrades faster than GPU performance without TC for
    #: skewed matrices" (paper Section 3.4).
    tf32_tile: tuple[int, int] = (256, 128)
    #: Effective DRAM reuse factor of the naive one-thread-per-output
    #: matmul kernel (L1/L2 catches some of the k-loop traffic).
    naive_reuse: float = 4.7
    #: Sustained efficiency of the shared-memory tiled kernel.
    shmem_efficiency: float = 0.20
    #: Achievable fraction of DRAM bandwidth for streaming kernels.
    stream_efficiency: float = 0.85
    #: Effective FLOPs per DRAM byte for cuSPARSE CSR SpMM (gather-bound).
    cusparse_flops_per_byte: float = 1.0
    #: COO penalty vs CSR (extra index traffic + atomics).
    coo_efficiency: float = 0.6
    #: Sustained efficiency of batched-small/gather GEMMs (the pure-torch
    #: pixelfly block einsum) relative to FP32 peak.
    batched_gather_efficiency: float = 0.08
    #: Occupancy ramp: CTAs needed per SM for full throughput.
    ctas_per_sm_for_peak: float = 2.0
    #: Maximum split-k factor cuBLAS uses to recover occupancy on small
    #: grids (keeps small-m GEMMs off the worst of the occupancy cliff).
    max_split_k: int = 8
    #: Host-side training-loop overhead per step (dataloader, Python
    #: dispatch, loss/metrics) — common to every method in Table 4.
    train_step_overhead_s: float = 300e-6

    @property
    def effective_bandwidth(self) -> float:
        """Sustained streaming bandwidth."""
        return self.dram_bandwidth * self.stream_efficiency


#: NVIDIA A30 (Table 1 column 1).
A30 = GPUSpec(
    name="A30",
    sm_count=56,
    clock_hz=1.44e9,
    peak_flops_fp32=10.3e12,
    peak_flops_tf32=82e12,
    dram_bandwidth=933e9,
    memory_bytes=24 * GiB,
    kernel_launch_s=5e-6,
    framework_overhead_s=8e-6,
    cublas_fp32_efficiency=0.944,
    cublas_tf32_efficiency=0.72,
)
