"""Tests for the bit-reversal permutation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.permutations import bit_reversal_permutation

pow2 = st.sampled_from([2, 4, 8, 16, 32, 64, 128])


class TestBitReversal:
    def test_small_case(self):
        np.testing.assert_array_equal(
            bit_reversal_permutation(8), [0, 4, 2, 6, 1, 5, 3, 7]
        )

    def test_identity_for_n2(self):
        np.testing.assert_array_equal(bit_reversal_permutation(2), [0, 1])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            bit_reversal_permutation(12)

    @settings(max_examples=20, deadline=None)
    @given(pow2)
    def test_is_valid_permutation(self, n):
        perm = bit_reversal_permutation(n)
        assert perm.shape == (n,)
        np.testing.assert_array_equal(np.sort(perm), np.arange(n))

    @settings(max_examples=20, deadline=None)
    @given(pow2)
    def test_is_involution(self, n):
        perm = bit_reversal_permutation(n)
        np.testing.assert_array_equal(perm[perm], np.arange(n))

