"""GPU cost-model simulator (NVIDIA A30 stand-in).

Substitutes for the paper's comparison device: kernel cost models for
naive/shared-memory/cuBLAS (FP32 and TF32 tensor-core) GEMMs
(:mod:`repro.gpu.kernels`), cuSPARSE-style SpMM (:mod:`repro.gpu.cusparse`),
a device façade with memory checking (:mod:`repro.gpu.simulator`), and a
PyTorch-style bridge for :mod:`repro.nn` models (:mod:`repro.gpu.torchsim`).
"""

from repro.gpu.machine import GPUSpec, A30
from repro.gpu.kernels import (
    KernelCost,
    tile_quantisation,
    occupancy,
    naive_matmul_cost,
    shmem_matmul_cost,
    cublas_fp32_cost,
    cublas_tf32_cost,
    pytorch_matmul_cost,
    stream_cost,
)
from repro.gpu.cusparse import csr_spmm_cost, coo_spmm_cost
from repro.gpu.simulator import GPUDevice, GPUOutOfMemoryError, MATMUL_IMPLS
from repro.gpu.torchsim import GPUModule, lower_model_gpu

__all__ = [
    "GPUSpec",
    "A30",
    "KernelCost",
    "tile_quantisation",
    "occupancy",
    "naive_matmul_cost",
    "shmem_matmul_cost",
    "cublas_fp32_cost",
    "cublas_tf32_cost",
    "pytorch_matmul_cost",
    "stream_cost",
    "csr_spmm_cost",
    "coo_spmm_cost",
    "GPUDevice",
    "GPUOutOfMemoryError",
    "MATMUL_IMPLS",
    "GPUModule",
    "lower_model_gpu",
]
