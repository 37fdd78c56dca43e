"""Fig 4 — skewed matrix multiply: GPU collapses, IPU stays flat.

The sweep skews the left operand ``A (m x n)`` at constant output area
(``m * n`` fixed) with ``k`` fixed, following the paper's definition
``s = m / n``.  At extreme ratios one of the GPU kernel's tile dimensions
collapses below the CTA tile and utilisation falls off (the TF32 path
earlier and harder — its tiles are coarser), while the IPU's planner just
picks a different grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.flops import gflops
from repro.bench.reporting import Table
from repro.gpu.machine import A30
from repro.gpu.simulator import GPUDevice
from repro.ipu.machine import GC200
from repro.ipu.poplin import matmul_report

__all__ = ["Fig4Row", "default_exponents", "skew_shape", "run", "render"]


def default_exponents() -> list[int]:
    """Skew exponents: s = 2**e for e in -16..16 (steps of 4).

    The extremes push one operand dimension below the GPU kernels' CTA
    tiles, where the Fig 4 collapse happens; the TF32 path (coarser tiles)
    collapses earlier.
    """
    return list(range(-16, 17, 4))


def skew_shape(base: int, exponent: int) -> tuple[int, int, int]:
    """Shape with ``m * n = base**2``, ``k = base`` and ``m / n = 2**e``."""
    if exponent >= 0:
        m = base << (exponent // 2 + exponent % 2)
        n = base >> (exponent // 2)
    else:
        e = -exponent
        m = base >> (e // 2)
        n = base << (e // 2 + e % 2)
    return max(m, 1), max(n, 1), base


@dataclass(frozen=True)
class Fig4Row:
    """One skew point: throughput per device path."""

    skew: float
    m: int
    n: int
    k: int
    gpu_fp32_gflops: float
    gpu_tf32_gflops: float
    ipu_gflops: float


def run(
    base: int = 2048,
    exponents: list[int] | None = None,
) -> list[Fig4Row]:
    """Sweep the skew exponents on both devices."""
    device = GPUDevice(A30)
    rows = []
    for e in exponents if exponents is not None else default_exponents():
        m, n, k = skew_shape(base, e)
        flops = 2 * m * n * k
        fp32 = device.matmul_cost(m, n, k, "cublas_fp32")
        tf32 = device.matmul_cost(m, n, k, "cublas_tf32")
        ipu_t = matmul_report(GC200, m, n, k, check_fit=False).total_s
        rows.append(
            Fig4Row(
                skew=m / n,
                m=m,
                n=n,
                k=k,
                gpu_fp32_gflops=fp32.gflops,
                gpu_tf32_gflops=tf32.gflops,
                ipu_gflops=gflops(flops, ipu_t),
            )
        )
    return rows


def render(base: int = 2048) -> str:
    """Text rendering of the Fig 4 series."""
    table = Table(
        title="Fig 4: skewed MM throughput (GFLOP/s), GPU vs IPU",
        columns=[
            "skew m/n",
            "m",
            "n",
            "k",
            "GPU FP32",
            "GPU TF32",
            "IPU poplin",
        ],
        precision=0,
    )
    for row in run(base):
        table.add_row(
            row.skew,
            row.m,
            row.n,
            row.k,
            round(row.gpu_fp32_gflops),
            round(row.gpu_tf32_gflops),
            round(row.ipu_gflops),
        )
    return table.render()

