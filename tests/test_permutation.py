"""Unit and property tests for permutation functions and Eq. (1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.permutation import Permutation, equation1_quadruple
from repro.exceptions import ParameterError


class TestBasics:
    def test_identity(self):
        p = Permutation.identity(5)
        values = np.asarray([10, 20, 30, 40, 50])
        assert np.array_equal(p.apply(values), values)
        assert np.array_equal(p.invert(values), values)

    def test_apply_semantics(self):
        # out[mapping[i]] = in[i]
        p = Permutation(np.asarray([2, 0, 1]))
        out = p.apply(np.asarray([10, 20, 30]))
        assert out.tolist() == [20, 30, 10]

    def test_invert_undoes_apply(self):
        p = Permutation.random(20, seed=3)
        values = np.arange(100, 120)
        assert np.array_equal(p.invert(p.apply(values)), values)
        assert np.array_equal(p.apply(p.invert(values)), values)

    def test_inverse_object(self):
        p = Permutation.random(15, seed=4)
        values = np.arange(15)
        assert np.array_equal(p.inverse().apply(p.apply(values)), values)

    def test_index_ops(self):
        p = Permutation(np.asarray([2, 0, 1]))
        assert p.apply_index(0) == 2
        assert p.invert_index(2) == 0
        for i in range(3):
            assert p.invert_index(p.apply_index(i)) == i

    def test_random_is_deterministic(self):
        assert Permutation.random(30, 1) == Permutation.random(30, 1)
        assert Permutation.random(30, 1) != Permutation.random(30, 2)

    def test_hash_consistent_with_eq(self):
        a, b = Permutation.random(10, 5), Permutation.random(10, 5)
        assert a == b
        assert hash(a) == hash(b)


class TestCompose:
    def test_compose_order(self):
        # compose(q, p) applies p first, then q.
        p = Permutation(np.asarray([1, 2, 0]))
        q = Permutation(np.asarray([2, 1, 0]))
        values = np.asarray([10, 20, 30])
        assert np.array_equal(q.compose(p).apply(values),
                              q.apply(p.apply(values)))

    @given(st.integers(2, 64), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_compose_property(self, n, seed):
        p = Permutation.random(n, seed, "p")
        q = Permutation.random(n, seed, "q")
        values = np.arange(n) * 7
        assert np.array_equal(q.compose(p).apply(values),
                              q.apply(p.apply(values)))

    def test_size_mismatch(self):
        with pytest.raises(ParameterError):
            Permutation.identity(3).compose(Permutation.identity(4))


class TestValidation:
    def test_non_permutation_rejected(self):
        with pytest.raises(ParameterError):
            Permutation(np.asarray([0, 0, 1]))
        with pytest.raises(ParameterError):
            Permutation(np.asarray([1, 2, 3]))

    @pytest.mark.parametrize("mapping", [
        [0, 2, 2],        # a repeat with the right min and max
        [0, 3, 3, 1, 4],  # ... and one with 2 missing mid-range
        [-1, 0, 1],       # negative: would wrap under fancy indexing
        [2, 0, 1, -1],
        [0, 1, 3],        # a value >= n
    ])
    def test_invalid_mappings_rejected(self, mapping):
        with pytest.raises(ParameterError, match="not a permutation"):
            Permutation(np.asarray(mapping))

    def test_2d_rejected(self):
        with pytest.raises(ParameterError):
            Permutation(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ParameterError, match="1-D"):
            Permutation(np.arange(4).reshape(2, 2))

    def test_empty_and_single_accepted(self):
        assert Permutation(np.asarray([], dtype=np.int64)).size == 0
        assert Permutation(np.asarray([0])).size == 1

    def test_length_mismatch_on_apply(self):
        p = Permutation.identity(3)
        with pytest.raises(ParameterError):
            p.apply(np.arange(4))
        with pytest.raises(ParameterError):
            p.invert(np.arange(4))


class TestEquationOne:
    @given(st.integers(2, 128), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_quadruple_law(self, n, seed):
        # PF_s1 ⊙ PF_db1 == PF_s2 ⊙ PF_db2 == PF_i (Eq. 1).
        q = equation1_quadruple(n, seed)
        left = q["pf_s1"].compose(q["pf_db1"])
        right = q["pf_s2"].compose(q["pf_db2"])
        assert left == q["pf_i"]
        assert right == q["pf_i"]

    def test_halves_differ(self):
        # The two decompositions should not be trivially identical.
        q = equation1_quadruple(64, 7)
        assert q["pf_db1"] != q["pf_db2"]
        assert q["pf_s1"] != q["pf_s2"]

    def test_streams_align_under_quadruple(self):
        # The count-verification pairing: permuting a vector with PF_db1
        # then PF_s1 equals permuting with PF_db2 then PF_s2.
        q = equation1_quadruple(32, 9)
        values = np.arange(32) + 100
        via1 = q["pf_s1"].apply(q["pf_db1"].apply(values))
        via2 = q["pf_s2"].apply(q["pf_db2"].apply(values))
        assert np.array_equal(via1, via2)
