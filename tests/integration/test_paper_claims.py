"""Integration tests pinning the paper's headline claims (shape, not
absolute numbers) — the acceptance criteria of the reproduction."""

import pytest

from repro import nn
from repro.experiments import fig3, fig4, fig6
from repro.gpu.simulator import GPUDevice
from repro.ipu.machine import GC200
from repro.ipu.poptorch import IPUModule

# paper-scale compiles and a GPU OOM sweep: excluded from the
# `-m "not slow"` fast loop (docs/VERIFICATION.md).
pytestmark = pytest.mark.slow


class TestObservation1:
    """Exchange latency/bandwidth depend on size, not tile distance."""

    def test_fig3_distance_free(self):
        rows = fig3.run()
        assert all(r.distance_independent for r in rows)

    def test_fig3_latency_grows_with_size(self):
        rows = fig3.run()
        latencies = [r.neighbour_latency_s for r in rows]
        assert all(a <= b for a, b in zip(latencies, latencies[1:]))


class TestObservation2:
    """IPU >= GPU (no TC) on fitting dense MM; IPU flat under skew."""

    def test_ipu_poplin_beats_gpu_fp32(self):
        from repro.ipu.poplin import matmul_report

        n = 2048
        ipu = 2 * n**3 / matmul_report(GC200, n, n, n, check_fit=False).total_s
        gpu = GPUDevice().matmul_cost(n, n, n, "cublas_fp32").gflops * 1e9
        assert ipu > gpu

    def test_fig4_gpu_collapses_ipu_flat(self):
        rows = fig4.run(base=1024, exponents=[-12, 0, 12])
        gpu = [r.gpu_fp32_gflops for r in rows]
        ipu = [r.ipu_gflops for r in rows]
        # GPU loses badly at extreme skew.
        assert min(gpu[0], gpu[2]) < 0.6 * gpu[1]
        # The IPU stays within a modest band.
        assert min(ipu) > 0.5 * max(ipu)

    def test_fig4_tf32_degrades_faster(self):
        rows = fig4.run(base=1024, exponents=[0, 8])
        fp32_drop = rows[1].gpu_fp32_gflops / rows[0].gpu_fp32_gflops
        tf32_drop = rows[1].gpu_tf32_gflops / rows[0].gpu_tf32_gflops
        assert tf32_drop <= fp32_drop + 1e-9


class TestObservation3:
    """IPU memory grows beyond raw footprint, driven by graph structure."""

    def test_fig5_overhead_exceeds_data(self):
        from repro.experiments import fig5

        rows = fig5.run(sizes=[256, 1024])
        for row in rows:
            assert row.profile.total_bytes > row.profile.variable_bytes

    def test_fig5_structure_monotone(self):
        from repro.experiments import fig5

        rows = fig5.run(sizes=[128, 1024, 4096])
        vertices = [r.profile.n_vertices for r in rows]
        totals = [r.profile.total_bytes for r in rows]
        assert vertices[0] <= vertices[1] <= vertices[2]
        assert totals[0] < totals[1] < totals[2]


class TestFig6Claims:
    def test_ipu_break_even_near_2_10(self):
        below = fig6.layer_times("ipu", 512)
        above = fig6.layer_times("ipu", 2048)
        assert below.butterfly_speedup < 1.0
        assert above.butterfly_speedup > 1.0

    def test_ipu_worst_degradation_small(self):
        # Paper: worst case 1.4x (butterfly).  Allow a loose band.
        row = fig6.layer_times("ipu", 128)
        assert 1.0 < 1.0 / row.butterfly_speedup < 2.5

    def test_ipu_max_speedup_moderate(self):
        # Paper: 1.6x max for butterfly — crucially NOT the naive
        # N/log N factor (which would be >100x at N=4096).
        row = fig6.layer_times("ipu", 4096)
        assert 1.0 < row.butterfly_speedup < 3.0

    def test_gpu_notc_break_even_near_2_11(self):
        below = fig6.layer_times("gpu_notc", 1024)
        above = fig6.layer_times("gpu_notc", 4096)
        assert below.butterfly_speedup < 1.0
        assert above.butterfly_speedup > 1.0

    def test_gpu_worst_degradation_order_of_magnitude(self):
        # Paper: 14.45x worst case at small N.
        row = fig6.layer_times("gpu_notc", 128)
        degradation = 1.0 / row.butterfly_speedup
        assert degradation > 4.0

    def test_gpu_degradation_far_exceeds_ipu(self):
        gpu = 1.0 / fig6.layer_times("gpu_notc", 128).butterfly_speedup
        ipu = 1.0 / fig6.layer_times("ipu", 128).butterfly_speedup
        assert gpu > 2 * ipu

    def test_tensor_cores_push_break_even_out(self):
        notc = fig6.layer_times("gpu_notc", 4096)
        tc = fig6.layer_times("gpu_tc", 4096)
        assert tc.butterfly_speedup < notc.butterfly_speedup


class TestFig7Claims:
    def test_butterfly_fewer_compute_sets_than_fastfood(self):
        bf = IPUModule(
            nn.ButterflyLinear(256, 256, bias=False, seed=0), 256, 64
        ).profile()
        ff = IPUModule(
            nn.FastfoodLinear(256, bias=False, seed=0), 256, 64
        ).profile()
        assert bf.n_compute_sets < ff.n_compute_sets

    def test_pixelfly_fewer_compute_sets_than_butterfly(self):
        bf = IPUModule(
            nn.ButterflyLinear(1024, 1024, bias=False, seed=0), 1024, 64
        ).profile()
        pxf = IPUModule(
            nn.PixelflyLinear(
                1024, block_size=32, butterfly_size=4, rank=1,
                bias=False, seed=0,
            ),
            1024,
            64,
        ).profile()
        assert pxf.n_compute_sets < bf.n_compute_sets

    def test_butterfly_memory_below_linear_at_scale(self):
        n = 2048
        lin = IPUModule(nn.Linear(n, n, bias=False, seed=0), n, n).profile()
        bf = IPUModule(
            nn.ButterflyLinear(n, n, bias=False, seed=0), n, n
        ).profile()
        assert bf.total_bytes < lin.total_bytes


class TestCompressionClaims:
    def test_butterfly_shl_compression_above_95_percent(self):
        from repro.core.compression import compression_ratio

        base = 1059850
        butterfly = 31754
        assert compression_ratio(base, butterfly) > 0.95

    def test_cross_device_table4_directions(self):
        """Baseline trains faster on IPU; pixelfly does NOT (the paper's
        central cross-device finding)."""
        from repro.gpu.torchsim import GPUModule

        def shl(layer):
            return nn.Sequential(layer, nn.ReLU(), nn.Linear(1024, 10, seed=1))

        base_gpu = GPUModule(
            shl(nn.Linear(1024, 1024, seed=0)), 1024, 50
        ).training_step_time()
        base_ipu = (
            IPUModule(shl(nn.Linear(1024, 1024, seed=0)), 1024, 50)
            .training_step_time()
            + GC200.host_step_overhead_s
        )
        pxf = nn.PixelflyLinear(1024, block_size=32, rank=96, seed=0)
        pxf_gpu = GPUModule(shl(pxf), 1024, 50).training_step_time()
        pxf2 = nn.PixelflyLinear(1024, block_size=32, rank=96, seed=0)
        pxf_ipu = (
            IPUModule(shl(pxf2), 1024, 50).training_step_time()
            + GC200.host_step_overhead_s
        )
        assert base_ipu < base_gpu  # IPU wins the dense baseline
        assert pxf_ipu > 0.8 * pxf_gpu  # pixelfly loses its IPU advantage


class TestMemoryLimits:
    """Fig 6 footnote: 'torch.nn.Linear reaches its limit earlier due to
    memory limitations' — on both devices."""

    @pytest.fixture(scope="class")
    def limits(self):
        from repro.experiments.fig6 import memory_limits

        return {row.device: row for row in memory_limits()}

    def test_gpu_linear_ooms_before_structured(self, limits):
        gpu = limits["gpu"]
        assert gpu.butterfly_max > gpu.linear_max
        assert gpu.pixelfly_max > gpu.linear_max

    def test_ipu_linear_ooms_before_structured(self, limits):
        ipu = limits["ipu"]
        assert ipu.butterfly_max >= 2 * ipu.linear_max
        assert ipu.pixelfly_max >= 2 * ipu.linear_max

    def test_gpu_fits_larger_than_ipu(self, limits):
        # 24 GB HBM vs ~900 MB SRAM: the GPU's dense layer goes further —
        # the memory-pressure motivation for compression on the IPU.
        assert limits["gpu"].linear_max > limits["ipu"].linear_max
