"""Unit tests for the deterministic PRG and seed derivation."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.prg import SeededPRG, derive_seed
from repro.exceptions import ParameterError


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = SeededPRG(42, "x").bytes(1000)
        b = SeededPRG(42, "x").bytes(1000)
        assert a == b

    def test_different_seed_different_stream(self):
        assert SeededPRG(1).bytes(64) != SeededPRG(2).bytes(64)

    def test_label_separates_streams(self):
        assert SeededPRG(1, "a").bytes(64) != SeededPRG(1, "b").bytes(64)

    def test_stream_continuation_consistent(self):
        # Drawing 10 + 10 bytes equals drawing 20 at once.
        prg = SeededPRG(5)
        first = prg.bytes(10) + prg.bytes(10)
        assert first == SeededPRG(5).bytes(20)

    def test_psu_mask_agreement(self):
        # The PSU invariant: two servers derive identical masks from the
        # shared seed without communicating.
        m1 = SeededPRG(99, "psu-7").integers(1000, 1, 113)
        m2 = SeededPRG(99, "psu-7").integers(1000, 1, 113)
        assert np.array_equal(m1, m2)


class TestSequentialStream:
    """Consecutive draws read one stream, whatever the read sizes: the
    compiled generator fills 64-block (2 KB) chunks four blocks at a
    time, so these reads start and end inside lane groups and chunks."""

    READS = [1, 31, 2048 - 32, 7, 2048 * 3 + 5, 96, 1]

    @staticmethod
    def _hashlib_stream(key, n):
        return b"".join(hashlib.sha256(key + struct.pack("<Q", c)).digest()
                        for c in range(-(-n // 32)))[:n]

    def test_bytes_across_chunks(self):
        prg = SeededPRG(77, "chunks")
        drawn = b"".join(prg.bytes(n) for n in self.READS)
        assert drawn == self._hashlib_stream(prg.key_bytes, sum(self.READS))

    def test_integers_across_chunks(self):
        prg = SeededPRG(78, "chunks")
        counts = [1, 3, 255, 2, 257, 1000]
        drawn = np.concatenate([prg.integers(n, 1, 101) for n in counts])
        raw = np.frombuffer(
            self._hashlib_stream(prg.key_bytes, 8 * sum(counts)), dtype="<u8")
        assert drawn.tolist() == (raw % np.uint64(100) + 1).tolist()


class TestIntegers:
    def test_range_respected(self):
        values = SeededPRG(3).integers(5000, 1, 113)
        assert values.min() >= 1
        assert values.max() < 113
        assert values.dtype == np.int64

    def test_coverage(self):
        values = SeededPRG(4).integers(5000, 0, 10)
        assert set(values.tolist()) == set(range(10))

    def test_integers_at_matches_stream_slices(self):
        """Seekable access returns exactly integers()[offset:offset+n]."""
        full = SeededPRG(42, "seek").integers(100, 1, 9973)
        prg = SeededPRG(42, "seek")
        for offset, n in [(0, 100), (0, 1), (3, 7), (17, 40), (99, 1),
                          (50, 0), (4, 96)]:
            window = prg.integers_at(offset, n, 1, 9973)
            assert np.array_equal(window, full[offset:offset + n])
        # Seeking never consumes the instance's own stream state.
        assert np.array_equal(prg.integers(100, 1, 9973), full)

    def test_integers_at_empty_range_rejected(self):
        with pytest.raises(ParameterError):
            SeededPRG(1).integers_at(0, 4, 5, 5)

    def test_integers_at_negative_window_rejected(self):
        with pytest.raises(ParameterError):
            SeededPRG(1).integers_at(-2, 4, 0, 10)
        with pytest.raises(ParameterError):
            SeededPRG(1).integers_at(3, -2, 0, 10)

    def test_empty_range_rejected(self):
        with pytest.raises(ParameterError):
            SeededPRG(0).integers(1, 5, 5)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ParameterError):
            SeededPRG(0).bytes(-1)

    @given(st.integers(0, 2**40), st.integers(1, 100))
    @settings(max_examples=30, deadline=None)
    def test_scalar_integer_in_range(self, seed, span):
        value = SeededPRG(seed).integer(10, 10 + span)
        assert 10 <= value < 10 + span

    def test_scalar_integer_bigint_range(self):
        low, high = 2**100, 2**101
        value = SeededPRG(8).integer(low, high)
        assert low <= value < high

    def test_scalar_empty_range_rejected(self):
        with pytest.raises(ParameterError):
            SeededPRG(0).integer(5, 5)


class TestShuffle:
    @pytest.mark.parametrize("n", [0, 1, 2, 10, 257])
    def test_valid_permutation(self, n):
        idx = SeededPRG(7).shuffle_indices(n)
        assert sorted(idx.tolist()) == list(range(n))

    def test_deterministic(self):
        a = SeededPRG(7).shuffle_indices(50)
        b = SeededPRG(7).shuffle_indices(50)
        assert np.array_equal(a, b)

    def test_not_identity_for_large_n(self):
        idx = SeededPRG(7).shuffle_indices(100)
        assert not np.array_equal(idx, np.arange(100))


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")

    def test_label_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(1, "y")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_63_bit_range(self):
        for i in range(20):
            s = derive_seed(i, "label")
            assert 0 <= s < 2**63
