"""Tests for the ablation and generational-comparison experiments."""

import pytest

from repro.experiments import ablation, generations
from repro.ipu.machine import GC2, GC200
from repro.ipu.vertices import CODELETS

# full ablation/generation sweeps: excluded from the
# `-m "not slow"` fast loop (docs/VERIFICATION.md).
pytestmark = pytest.mark.slow


class TestStreamingAblation:
    def test_paper_conjecture_more_drastic(self):
        """'Without data movement, the performance differences would be
        more drastic' — must hold at every size."""
        rows = ablation.streaming_ablation(sizes=(1024, 4096))
        assert all(r.more_drastic for r in rows)

    def test_effect_grows_with_size(self):
        rows = ablation.streaming_ablation(sizes=(1024, 4096))
        gap = [
            r.speedup_without_streaming - r.speedup_with_streaming
            for r in rows
        ]
        assert gap[1] > gap[0]


class TestAmpButterflyAblation:
    def test_amp_codelet_restores_asymptotics(self):
        rows = ablation.amp_butterfly_ablation()  # N = 1024, 4096
        for row in rows:
            assert row.headroom > 1.0
        # Headroom grows with N: the gather path is the asymptotic limiter.
        assert rows[1].headroom > rows[0].headroom

    def test_codelet_registry_restored(self, monkeypatch):
        monkeypatch.setattr(ablation, "AMP_SIZES", (1024,))
        before = CODELETS["ButterflyStage"]
        ablation.amp_butterfly_ablation()
        assert CODELETS["ButterflyStage"] is before


class TestSyncSensitivity:
    def test_degradation_monotone_in_sync_cost(self):
        rows = ablation.sync_sensitivity()  # 100, 700, 3000 cycles
        values = [r.small_n_degradation for r in rows]
        assert values[0] < values[1] < values[2]


class TestGenerations:
    @pytest.fixture(scope="class")
    def rows(self):
        return generations.run()

    def test_gc200_faster_dense(self, rows):
        gc2, gc200 = rows
        assert gc2.spec is GC2 and gc200.spec is GC200
        assert gc200.poplin_gflops_1024 > gc2.poplin_gflops_1024

    def test_gc200_fits_larger_problems(self, rows):
        gc2, gc200 = rows
        assert gc200.largest_matmul > gc2.largest_matmul

    def test_architectural_conclusion_survives_generations(self, rows):
        """Butterfly's overhead relative to Linear exists on BOTH
        generations — it's the AMP-only dense path, not a generation
        artefact."""
        for row in rows:
            assert row.butterfly_vs_linear > 1.0

    def test_render(self):
        text = generations.render()
        assert "GC2" in text and "GC200" in text

    def test_ablation_render(self):
        text = ablation.render()
        assert "Ablation 1" in text
        assert "Ablation 3" in text
