"""Consistency tests for the A30 machine model (Table 1 cross-checks)."""

import pytest

from repro.gpu.machine import A30, GPUSpec
from repro.utils import GiB


class TestA30Spec:
    def test_datasheet_peaks(self):
        # Table 1 of the paper.
        assert A30.peak_flops_fp32 == pytest.approx(10.3e12)
        assert A30.peak_flops_tf32 == pytest.approx(82e12)
        assert A30.dram_bandwidth == pytest.approx(933e9)
        assert A30.memory_bytes == 24 * GiB

    def test_tf32_peak_about_8x_fp32(self):
        # The tensor-core ratio Table 1 implies.
        ratio = A30.peak_flops_tf32 / A30.peak_flops_fp32
        assert 7 < ratio < 9

    def test_effective_bandwidth_below_peak(self):
        assert A30.effective_bandwidth < A30.dram_bandwidth

    def test_efficiencies_in_unit_interval(self):
        for eff in [
            A30.cublas_fp32_efficiency,
            A30.cublas_tf32_efficiency,
            A30.shmem_efficiency,
            A30.stream_efficiency,
            A30.batched_gather_efficiency,
            A30.coo_efficiency,
        ]:
            assert 0.0 < eff <= 1.0

    def test_tf32_tiles_coarser_than_fp32(self):
        # The architectural fact behind "TC degrades faster under skew".
        assert A30.tf32_tile[0] >= A30.fp32_tile[0]
        assert A30.tf32_tile[1] >= A30.fp32_tile[1]

    def test_overheads_positive(self):
        assert A30.kernel_launch_s > 0
        assert A30.framework_overhead_s > 0
        assert A30.train_step_overhead_s > 0

    def test_custom_spec_construction(self):
        spec = GPUSpec(
            name="toy",
            sm_count=4,
            clock_hz=1e9,
            peak_flops_fp32=1e12,
            peak_flops_tf32=8e12,
            dram_bandwidth=100e9,
            memory_bytes=GiB,
            kernel_launch_s=1e-6,
            framework_overhead_s=1e-6,
            cublas_fp32_efficiency=0.9,
            cublas_tf32_efficiency=0.7,
        )
        assert spec.effective_bandwidth == pytest.approx(85e9)
