"""Tests for bench utilities (FLOP accounting, reporting, units, rng)."""

import numpy as np
import pytest

from repro.bench.flops import dense_equivalent, gflops
from repro.bench.reporting import Table, format_table
from repro.utils import (
    as_rng,
    check_power_of_two,
    derive_rng,
    format_bytes,
    format_seconds,
    log2_int,
)


class TestFlops:
    def test_gflops(self):
        assert gflops(2e9, 1.0) == pytest.approx(2.0)

    def test_gflops_rejects_zero_time(self):
        with pytest.raises(ValueError):
            gflops(1, 0)

    def test_dense_equivalent(self):
        assert dense_equivalent(10, 10, 10, 1e-9) == pytest.approx(2000)


class TestReporting:
    def test_table_rendering(self):
        t = Table(title="demo", columns=["a", "b"])
        t.add_row("x", 1.5)
        t.add_row("longer", 12345.678)
        text = t.render()
        assert "demo" in text
        assert "12,345.678" in text or "12,345.68" in text

    def test_row_length_validated(self):
        t = Table(title="t", columns=["a"])
        with pytest.raises(ValueError, match="columns"):
            t.add_row(1, 2)

    def test_precision_zero_keeps_small_values_visible(self):
        t = Table(title="t", columns=["v"], precision=0)
        t.add_row(0.0039)
        assert "0.0039" in t.render().replace(" ", "")

    def test_bool_formatting(self):
        text = format_table("t", ["ok"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_empty_table(self):
        assert "t" in format_table("t", ["col"], [])


class TestUnits:
    def test_format_bytes(self):
        assert format_bytes(1024) == "1.00 KiB"
        assert format_bytes(3 * 1024**2) == "3.00 MiB"
        assert format_bytes(500) == "500 B"

    def test_format_seconds(self):
        assert "ms" in format_seconds(5e-3)
        assert "us" in format_seconds(5e-6)
        assert "ns" in format_seconds(5e-10)


class TestValidationHelpers:
    def test_power_of_two(self):
        assert check_power_of_two(64) == 64
        with pytest.raises(ValueError):
            check_power_of_two(0)
        with pytest.raises(ValueError):
            check_power_of_two(48)

    def test_log2_int(self):
        assert log2_int(1024) == 10


class TestRng:
    def test_as_rng_idempotent_for_generator(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_as_rng_seed_deterministic(self):
        assert as_rng(5).integers(1000) == as_rng(5).integers(1000)

    def test_derive_rng_keys_independent(self):
        parent1 = np.random.default_rng(7)
        a = derive_rng(parent1, "alpha")
        parent2 = np.random.default_rng(7)
        b = derive_rng(parent2, "beta")
        assert a.integers(10**9) != b.integers(10**9)

    def test_derive_rng_same_key_reproducible(self):
        a = derive_rng(np.random.default_rng(7), "k", 3)
        b = derive_rng(np.random.default_rng(7), "k", 3)
        assert a.integers(10**9) == b.integers(10**9)
