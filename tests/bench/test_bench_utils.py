"""Tests for bench utilities (FLOP accounting, reporting, units, rng)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.utils.rng import _seed_words, indexed_rngs


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


class TestIndexedRngs:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**100 - 1),
        indices=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
        stream=st.integers(0, 2**40),
    )
    def test_seed_words_equal_seed_sequence(self, seed, indices, stream):
        words = _seed_words(seed, np.array(indices, dtype=np.uint32), stream)
        for row, index in zip(words, indices):
            seq = np.random.SeedSequence([seed, index, stream])
            np.testing.assert_array_equal(row, seq.generate_state(4, np.uint64))

    @pytest.mark.parametrize("seed", [0, 2**40 + 7])
    def test_generators_draw_the_seed_sequence_bytes(self, seed):
        for index, rng in enumerate(indexed_rngs(seed, 40, 3)):
            twin = np.random.default_rng(
                np.random.SeedSequence([seed, index, 3])
            )
            assert rng.bit_generator.state == twin.bit_generator.state
            assert rng.random(4).tobytes() == twin.random(4).tobytes()

    @pytest.mark.parametrize(
        "n_words, dtype",
        [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)],
    )
    def test_seed_serves_only_pcg64(self, n_words, dtype):
        seq = next(indexed_rngs(0, 1, 0)).bit_generator.seed_seq
        assert seq.generate_state(4, np.uint64).shape == (4,)
        with pytest.raises(ValueError, match="4 uint64 words"):
            seq.generate_state(n_words, dtype)

    def test_rejects_indices_wider_than_32_bits(self):
        # Raised before any array of 2**32 indices is allocated.
        with pytest.raises(ValueError, match="n must be"):
            indexed_rngs(0, 2**32 + 1, 0)

    def test_rejects_negative_seed(self):
        # -1 >> 32 == -1: splitting it into words would never end.
        with pytest.raises(ValueError, match="seed"):
            indexed_rngs(-1, 1, 0)

    def test_repro_list_never_imports_numpy_random(self):
        """numpy.random (~13 ms, ~6 MiB) loads on the first draw, so a
        command that draws nothing does not pay for it."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            ),
        )
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "list"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        imported = {
            line.rpartition("|")[2].strip()
            for line in done.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "numpy" in imported and "repro.utils.rng" in imported
        assert not {
            name for name in imported if name.startswith("numpy.random")
        }
