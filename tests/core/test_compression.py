"""Tests for compression-ratio accounting against the paper's numbers."""

import pytest

from repro.core.compression import CompressionReport, compression_ratio


class TestRatio:
    def test_basic(self):
        assert compression_ratio(100, 25) == pytest.approx(0.75)

    def test_paper_butterfly_number(self):
        # The paper's headline: 16390 / 1059850 -> 98.45 % compression.
        assert compression_ratio(1059850, 16390) == pytest.approx(
            0.9845, abs=1e-4
        )

    def test_our_butterfly_number(self):
        # Standard 2 n log2 n twiddles + classifier: 31754 params -> 97.0 %.
        assert compression_ratio(1059850, 31754) == pytest.approx(
            0.970, abs=1e-3
        )

    def test_zero_method_params(self):
        assert compression_ratio(10, 0) == 1.0

    def test_rejects_bad_baseline(self):
        with pytest.raises(ValueError):
            compression_ratio(0, 1)

    def test_rejects_negative_method(self):
        with pytest.raises(ValueError):
            compression_ratio(10, -1)

    def test_expansion_gives_negative_ratio(self):
        assert compression_ratio(10, 20) == -1.0


class TestReport:
    def test_fields(self):
        report = CompressionReport("butterfly", 1000, 100)
        assert report.ratio == pytest.approx(0.9)

    def test_str_contains_percentage(self):
        text = str(CompressionReport("m", 1000, 15))
        assert "98.5%" in text
