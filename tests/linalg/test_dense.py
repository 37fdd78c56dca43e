"""Tests for the dense GEMM FLOP/byte counts."""

from repro.linalg import matmul_bytes, matmul_flops


class TestFlops:
    def test_matmul_flops(self):
        assert matmul_flops(2, 3, 4) == 48

    def test_matmul_bytes(self):
        assert matmul_bytes(2, 3, 4) == 4 * (8 + 12 + 6)
