"""Tests for the IPU machine model and exchange fabric."""

import pytest

from repro.ipu.exchange import ExchangeModel
from repro.ipu.machine import GC2, GC200
from repro.utils import MiB


class TestSpec:
    def test_gc200_total_memory_matches_table1(self):
        # Table 1: ~900 MB of In-Processor-Memory.
        assert 850 * MiB < GC200.total_memory_bytes < 950 * MiB

    def test_gc200_amp_peak_matches_datasheet(self):
        # 62.5 TFLOP/s FP32 from Table 1 must emerge from tiles x clock x AMP.
        amp = GC200.n_tiles * GC200.clock_hz * 2 * GC200.amp_macs_per_cycle
        assert amp == pytest.approx(GC200.peak_flops_fp32, rel=0.02)

    def test_gc2_amp_peak_matches_jia_etal(self):
        # Jia et al. measured 31.1 TFLOP/s for GC2.
        amp = GC2.n_tiles * GC2.clock_hz * 2 * GC2.amp_macs_per_cycle
        assert amp == pytest.approx(GC2.peak_flops_fp32, rel=0.02)

    def test_tile_counts(self):
        assert GC200.n_tiles == 1472
        assert GC2.n_tiles == 1216

    def test_generic_rates_below_amp(self):
        assert (
            GC200.scalar_flops_per_cycle
            < GC200.vector_flops_per_cycle
            < 2 * GC200.amp_macs_per_cycle
        )

    def test_usable_memory_leaves_reserve(self):
        assert GC200.usable_tile_memory < GC200.tile_memory_bytes

    def test_exchange_bandwidth_order_of_magnitude(self):
        # Aggregate exchange should be in the TB/s class (Table 1: 47.5;
        # Jia et al. measured ~8 TB/s sustained all-to-all; ours sits
        # between as a per-tile-streaming model).
        assert 5e12 < GC200.exchange_bandwidth_total < 5e13


class TestExchange:
    def setup_method(self):
        self.model = ExchangeModel(GC200)

    def test_observation1_distance_independence(self):
        # The paper's Fig 3 pairs: neighbours (0,1) vs distant (0,644).
        for size in [4, 1024, 2**20]:
            near = self.model.transfer_time(size, 0, 1)
            far = self.model.transfer_time(size, 0, 644)
            assert near == far

    def test_latency_grows_with_size(self):
        times = [
            self.model.transfer_time(s, 0, 1) for s in [64, 1024, 2**16]
        ]
        assert times[0] < times[1] < times[2]

    def test_bandwidth_saturates(self):
        small = self.model.measure(64, 0, 1).bandwidth_bytes_per_s
        large = self.model.measure(2**22, 0, 1).bandwidth_bytes_per_s
        assert large > small
        assert large <= GC200.exchange_bandwidth_per_tile * 1.01

    def test_zero_bytes(self):
        assert self.model.transfer_cycles(0) == 0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            self.model.transfer_cycles(-1)

    def test_tile_bounds_validated(self):
        with pytest.raises(ValueError, match="tile"):
            self.model.transfer_time(100, 0, GC200.n_tiles)

    def test_local_copy_cheaper_than_remote(self):
        local = self.model.transfer_time(1024, 5, 5)
        remote = self.model.transfer_time(1024, 5, 6)
        assert local < remote

    def test_gather_time_bounded_by_worst_tile(self):
        t = self.model.gather_time({0: 1000, 1: 4000, 2: 10})
        assert t == self.model.transfer_cycles(4000) / GC200.clock_hz

    def test_gather_time_empty(self):
        assert self.model.gather_time({}) == 0.0

    def test_sweep_produces_monotone_latency(self):
        sizes = [4 << i for i in range(10)]
        latencies = [self.model.measure(s, 0, 644).latency_s for s in sizes]
        assert all(a <= b for a, b in zip(latencies, latencies[1:]))
