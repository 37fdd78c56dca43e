"""Table 1 — spec-sheet comparison of the GC200 IPU and A30 GPU.

Regenerated from the two machine models so every number the simulators use
is the number the table shows (a consistency test cross-checks derived
rates against the datasheet peaks).
"""

from __future__ import annotations

from repro.bench.reporting import Table
from repro.gpu.machine import A30
from repro.ipu.machine import GC200
from repro.utils import GiB, MiB

__all__ = ["run", "render"]


def run() -> list[tuple[str, str, str]]:
    """Rows of (quantity, GPU value, IPU value), paper order."""
    gpu, ipu = A30, GC200
    return [
        ("Number of cores", f"{gpu.sm_count * 64}", f"{ipu.n_tiles}"),
        (
            "On-chip memory",
            "10.75 MB",  # A30 L2 (datasheet; not modelled further)
            f"{ipu.total_memory_bytes / MiB:.0f} MB",
        ),
        (
            "Off-chip memory",
            f"{gpu.memory_bytes / GiB:.0f} GB",
            f"{ipu.offchip_memory_bytes / GiB:.0f} GB",
        ),
        (
            "Off-chip memory bandwidth",
            f"{gpu.dram_bandwidth / 1e9:.0f} GB/s",
            f"{ipu.host_bandwidth / 1e9:.0f} GB/s",
        ),
        (
            "On-chip memory bandwidth",
            "5.5 TB/s",  # A30 L2 bandwidth (datasheet)
            f"{ipu.exchange_bandwidth_total / 1e12:.1f} TB/s",
        ),
        (
            "FP32 peak compute",
            f"{gpu.peak_flops_fp32 / 1e12:.1f} TFLOPS",
            f"{ipu.peak_flops_fp32 / 1e12:.1f} TFLOPS",
        ),
        (
            "TF32 peak compute",
            f"{gpu.peak_flops_tf32 / 1e12:.0f} TFLOPS",
            "-",
        ),
        (
            "Clock frequency",
            f"{gpu.clock_hz / 1e9:.2f} GHz",
            f"{ipu.clock_hz / 1e9:.2f} GHz",
        ),
    ]


def render() -> str:
    """Text rendering of the Table 1 reproduction."""
    table = Table(
        title="Table 1: Comparison of Graphcore GC200 and NVIDIA A30",
        columns=["", A30.name, GC200.name],
    )
    for row in run():
        table.add_row(*row)
    return table.render()

