"""Unit and property tests for Shamir secret sharing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.shamir import DEFAULT_FIELD_PRIME, ShamirSharing
from repro.exceptions import ShareError

P = DEFAULT_FIELD_PRIME


@pytest.fixture()
def scheme():
    return ShamirSharing(num_shares=3, degree=1,
                         rng=np.random.default_rng(0))


class TestRoundTrip:
    def test_vector_roundtrip(self, scheme):
        secrets = np.asarray([0, 1, 123456789, P - 1], dtype=np.int64)
        shares = scheme.share_vector(secrets)
        assert len(shares) == 3
        assert np.array_equal(scheme.reconstruct_vector(shares), secrets)

    def test_scalar_roundtrip(self, scheme):
        for s in (0, 1, 999_999_937, P - 1):
            assert scheme.reconstruct_scalar(scheme.share_scalar(s)) == s

    def test_degree1_needs_two_shares(self, scheme):
        shares = scheme.share_vector(np.asarray([42]))
        # Any 2 of the 3 points suffice for a degree-1 polynomial.
        assert scheme.reconstruct_vector(shares[:2], points=[1, 2])[0] == 42
        assert scheme.reconstruct_vector(shares[1:], points=[2, 3])[0] == 42

    def test_higher_degree(self):
        scheme = ShamirSharing(num_shares=5, degree=3,
                               rng=np.random.default_rng(2))
        shares = scheme.share_vector(np.asarray([777]))
        assert scheme.reconstruct_vector(shares, degree=3)[0] == 777

    @given(st.lists(st.integers(0, P - 1), min_size=1, max_size=30),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, secrets, seed):
        scheme = ShamirSharing(rng=np.random.default_rng(seed))
        arr = np.asarray(secrets, dtype=np.int64)
        assert np.array_equal(
            scheme.reconstruct_vector(scheme.share_vector(arr)), arr)


class TestLagrange:
    def test_weights_at_points_1_2(self, scheme):
        # lambda_1 = 2, lambda_2 = -1 for points (1, 2) evaluated at 0.
        w = scheme.lagrange_weights([1, 2])
        assert w[0] == 2
        assert w[1] == P - 1

    def test_weights_sum_to_one_shifted(self, scheme):
        # Reconstructing the constant polynomial 1 from any points gives 1.
        for points in ([1, 2], [1, 2, 3], [2, 3]):
            w = scheme.lagrange_weights(points)
            assert sum(w) % P == 1

    def test_duplicate_points_rejected(self, scheme):
        with pytest.raises(ShareError):
            scheme.lagrange_weights([1, 1])


class TestHomomorphism:
    @given(st.integers(0, P - 1), st.integers(0, P - 1),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_additive(self, x, y, seed):
        scheme = ShamirSharing(rng=np.random.default_rng(seed))
        sx = scheme.share_vector(np.asarray([x]))
        sy = scheme.share_vector(np.asarray([y]))
        combined = [scheme.add_shares(a, b) for a, b in zip(sx, sy)]
        assert scheme.reconstruct_vector(combined)[0] == (x + y) % P

    @given(st.integers(0, 10**6), st.integers(0, 10**6),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_multiplicative_degree_doubles(self, x, y, seed):
        # The PSI-Sum core: product of two degree-1 shares reconstructs
        # with three points as a degree-2 polynomial (Eq. 11).
        scheme = ShamirSharing(rng=np.random.default_rng(seed))
        sx = scheme.share_vector(np.asarray([x]))
        sy = scheme.share_vector(np.asarray([y]))
        product = [scheme.mul_shares(a, b) for a, b in zip(sx, sy)]
        assert scheme.reconstruct_vector(product, degree=2)[0] == (x * y) % P

    def test_product_of_sums_vectorised(self):
        scheme = ShamirSharing(rng=np.random.default_rng(3))
        xs = np.asarray([3, 5, 7, 0], dtype=np.int64)
        zs = np.asarray([1, 0, 1, 1], dtype=np.int64)
        sx = scheme.share_vector(xs)
        sz = scheme.share_vector(zs)
        prod = [scheme.mul_shares(a, b) for a, b in zip(sx, sz)]
        out = scheme.reconstruct_vector(prod, degree=2)
        assert np.array_equal(out, xs * zs)


class TestValidation:
    def test_composite_prime_rejected(self):
        with pytest.raises(ShareError):
            ShamirSharing(prime=91)

    def test_degree_zero_rejected(self):
        with pytest.raises(ShareError):
            ShamirSharing(degree=0)

    def test_insufficient_points_rejected(self):
        with pytest.raises(ShareError):
            ShamirSharing(num_shares=2, degree=2)

    def test_reconstruct_insufficient_shares(self, scheme):
        shares = scheme.share_vector(np.asarray([1]))
        with pytest.raises(ShareError):
            scheme.reconstruct_vector(shares[:2], degree=2)

    def test_mismatched_points(self, scheme):
        shares = scheme.share_vector(np.asarray([1]))
        with pytest.raises(ShareError):
            scheme.reconstruct_vector(shares, points=[1, 2])

    @pytest.mark.parametrize("prime", [2**40 + 15, 2**61 - 1])
    def test_prime_above_32_bits_rejected(self, prime):
        # Shares are uint32 vectors whose products must fit uint64.
        with pytest.raises(ShareError, match="below 2\\*\\*32"):
            ShamirSharing(prime=prime)

    def test_largest_32_bit_prime_roundtrips(self):
        p = 4_294_967_291
        scheme = ShamirSharing(prime=p, rng=np.random.default_rng(5))
        secrets = np.asarray([0, 1, 12345, p - 1], dtype=np.int64)
        shares = scheme.share_vector(secrets)
        assert all(s.dtype == np.uint32 for s in shares)
        assert np.array_equal(scheme.reconstruct_vector(shares), secrets)
        product = [scheme.mul_shares(s, s) for s in shares]
        assert np.array_equal(scheme.reconstruct_vector(product, degree=2),
                              secrets.astype(object) ** 2 % p)

    def test_prime_must_exceed_points(self):
        with pytest.raises(ShareError):
            ShamirSharing(prime=3, num_shares=3, degree=1)


class TestSecrecy:
    def test_degree_many_fewer_shares_random(self):
        # One share of a degree-1 sharing is uniform: check spread.
        scheme = ShamirSharing(prime=101, num_shares=3, degree=1,
                               rng=np.random.default_rng(9))
        ones = np.ones(4000, dtype=np.int64)
        first = scheme.share_vector(ones)[0]
        counts = np.bincount(first, minlength=101)
        assert counts.min() > 0
