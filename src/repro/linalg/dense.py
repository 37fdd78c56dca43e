"""FLOP/byte accounting for a dense matmul.

The device cost models express every kernel time as
``max(flops / rate, bytes / bandwidth) + overheads``; the canonical FLOP and
byte counts for a GEMM live here so GPU and IPU models agree on the workload.
"""

from __future__ import annotations

__all__ = ["matmul_flops", "matmul_bytes"]


def matmul_flops(m: int, n: int, k: int) -> int:
    """FLOPs of ``(m x k) @ (k x n)`` counting one multiply + one add each."""
    return 2 * m * n * k


def matmul_bytes(m: int, n: int, k: int, element_bytes: int = 4) -> int:
    """Minimum bytes moved for a GEMM: read A and B once, write C once."""
    return element_bytes * (m * k + k * n + m * n)

