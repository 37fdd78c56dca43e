"""Tests for the multi-IPU / streaming-memory extension (paper future work)."""

import pytest

from repro import nn
from repro.ipu.machine import GC200
from repro.ipu.multi import (
    M2000,
    allreduce_time,
    data_parallel_step,
    streaming_step,
)


class TestAllReduce:
    def test_zero_for_single_ipu(self):
        assert allreduce_time(M2000, 10**6, n_ipus=1) == 0.0

    def test_zero_bytes(self):
        assert allreduce_time(M2000, 0) == 0.0

    def test_scales_with_payload(self):
        small = allreduce_time(M2000, 10**4)
        large = allreduce_time(M2000, 10**8)
        assert large > 100 * small / 10

    def test_latency_floor(self):
        t = allreduce_time(M2000, 4)
        assert t >= 2 * (M2000.n_ipus - 1) * M2000.link_latency_s

    def test_validation(self):
        with pytest.raises(ValueError):
            allreduce_time(M2000, 100, n_ipus=8)
        with pytest.raises(ValueError):
            allreduce_time(M2000, -1)

    def test_ring_formula(self):
        nbytes = 320_000_000  # exactly 1ms of link traversal per pass
        t = allreduce_time(M2000, nbytes, n_ipus=4)
        expected = 6 * M2000.link_latency_s + (2 * 3 / 4) * nbytes / 320e9
        assert t == pytest.approx(expected)


class TestDegradedLinks:
    """One dropped IPU-Link direction: retry over the surviving one."""

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_one_failed_link_formula(self, p):
        nbytes = 10**7
        healthy = allreduce_time(M2000, nbytes, n_ipus=p)
        degraded = allreduce_time(M2000, nbytes, n_ipus=p, failed_links=1)
        payload = 2 * (p - 1) / p * nbytes
        expected = (
            M2000.link_retry_timeout_s
            + 2 * (p - 1) * M2000.link_latency_s
            + payload / (M2000.link_bandwidth / 2)
        )
        assert degraded == pytest.approx(expected)
        assert degraded > healthy

    def test_single_ipu_ignores_failed_links(self):
        assert allreduce_time(M2000, 10**6, n_ipus=1, failed_links=1) == 0.0

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_two_failed_links_partition_the_ring(self, p):
        with pytest.raises(ValueError, match="partition"):
            allreduce_time(M2000, 10**6, n_ipus=p, failed_links=2)

    def test_negative_failed_links_rejected(self):
        with pytest.raises(ValueError, match="failed_links"):
            allreduce_time(M2000, 10**6, failed_links=-1)

    def test_detection_timeout_dominates_small_payloads(self):
        healthy = allreduce_time(M2000, 64, n_ipus=4)
        degraded = allreduce_time(M2000, 64, n_ipus=4, failed_links=1)
        # 64 bytes of payload is ~3e-10 s of extra traversal; the 20 us
        # detection timeout is all that matters.
        assert degraded - healthy == pytest.approx(
            M2000.link_retry_timeout_s, abs=1e-8
        )


class TestDataParallel:
    def _model(self, kind="butterfly"):
        hidden = (
            nn.ButterflyLinear(1024, 1024, seed=0)
            if kind == "butterfly"
            else nn.Linear(1024, 1024, seed=0)
        )
        return nn.Sequential(hidden, nn.ReLU(), nn.Linear(1024, 10, seed=1))

    def test_step_faster_than_single_ipu(self):
        report = data_parallel_step(
            self._model(), 1024, global_batch=512, n_ipus=4
        )
        assert report.speedup > 1.0

    def test_scaling_efficiency_bounded(self):
        report = data_parallel_step(
            self._model(), 1024, global_batch=512, n_ipus=4
        )
        assert 0.0 < report.scaling_efficiency <= 1.2

    def test_butterfly_allreduce_cheaper_than_dense(self):
        """The headline of the extension: compression shrinks the gradient
        all-reduce by the same ~97 % as the weights."""
        bf = data_parallel_step(
            self._model("butterfly"), 1024, global_batch=512, n_ipus=4
        )
        dense = data_parallel_step(
            self._model("dense"), 1024, global_batch=512, n_ipus=4
        )
        # The total time includes a latency floor; the payload saving
        # tracks the ~97 % parameter compression.
        assert bf.allreduce_s < dense.allreduce_s / 2
        floor = 6 * M2000.link_latency_s
        assert (bf.allreduce_s - floor) < (dense.allreduce_s - floor) / 10

    def test_communication_fraction(self):
        report = data_parallel_step(
            self._model("dense"), 1024, global_batch=512, n_ipus=4
        )
        assert 0.0 < report.communication_fraction < 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="n_ipus"):
            data_parallel_step(self._model(), 1024, 512, n_ipus=9)
        with pytest.raises(ValueError, match="batch"):
            data_parallel_step(self._model(), 1024, 2, n_ipus=4)



class TestStreaming:
    def test_small_model_stays_resident(self):
        model = nn.Sequential(nn.Linear(64, 64, seed=0))
        report = streaming_step(model, 64, 32)
        assert report.resident
        assert report.stream_s == 0.0
        assert report.streaming_overhead == 1.0

    def test_oversized_model_streams(self):
        model = nn.Sequential(nn.Linear(8192, 8192, bias=False, seed=0))
        report = streaming_step(
            model, 8192, 32, weight_budget_bytes=1024
        )
        assert not report.resident
        assert report.stream_s > 0
        assert report.streaming_overhead > 1.0

    def test_stream_time_is_two_passes_over_ddr(self):
        model = nn.Sequential(nn.Linear(2048, 2048, bias=False, seed=0))
        report = streaming_step(model, 2048, 16, weight_budget_bytes=0)
        expected = 2 * report.param_bytes / GC200.effective_host_bandwidth
        assert report.stream_s == pytest.approx(expected)

    def test_butterfly_resident_where_dense_streams(self):
        """Quantifies the paper's motivation: at equal logical size the
        butterfly stays in In-Processor-Memory while dense must stream."""
        budget = 4 * 10**6  # 4 MB weight budget
        dense = streaming_step(
            nn.Sequential(nn.Linear(2048, 2048, bias=False, seed=0)),
            2048, 32, weight_budget_bytes=budget,
        )
        butterfly = streaming_step(
            nn.Sequential(nn.ButterflyLinear(2048, 2048, bias=False, seed=0)),
            2048, 32, weight_budget_bytes=budget,
        )
        assert not dense.resident
        assert butterfly.resident
        assert butterfly.streaming_overhead < dense.streaming_overhead


class TestEdgeCases:
    """Single replicas, zero-byte payloads, fully-partitioned rings."""

    def test_single_replica_partitioned_ring_is_vacuous(self):
        # p=1 has no ring: any failed-link count is survivable and the
        # collective is free, even with every link down.
        assert allreduce_time(M2000, 10**6, n_ipus=1, failed_links=2) == 0.0
        assert allreduce_time(M2000, 0, n_ipus=1, failed_links=3) == 0.0

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_all_links_failed_raises_even_for_zero_bytes(self, p):
        # A partitioned ring is a topology error, not a free all-reduce
        # of nothing — the zero-byte fast path must not mask it.
        with pytest.raises(ValueError, match="partition"):
            allreduce_time(M2000, 0, n_ipus=p, failed_links=2)

    def test_zero_bytes_with_one_failed_link_is_free(self):
        # Nothing to send: no retry timeout, no traversal.
        assert allreduce_time(M2000, 0, n_ipus=4, failed_links=1) == 0.0

    def test_data_parallel_single_replica_has_no_allreduce(self):
        model = nn.Sequential(nn.Linear(256, 256, bias=False, seed=0))
        report = data_parallel_step(model, 256, 8, n_ipus=1)
        assert report.allreduce_s == 0.0
        assert report.n_ipus == 1

    def test_streaming_zero_parameter_model(self):
        # A parameter-free model streams zero bytes: resident under any
        # budget, zero stream time, and no division by zero anywhere.
        report = streaming_step(
            nn.Sequential(nn.ReLU()), 64, 8, weight_budget_bytes=0
        )
        assert report.param_bytes == 0
        assert report.resident
        assert report.stream_s == 0.0
        assert report.step_s == report.compute_s
