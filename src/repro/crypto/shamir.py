"""Shamir secret sharing over a prime field F_p (§3.1).

Each secret ``s`` becomes the constant term of a random degree-``d``
polynomial ``f``; server ``i`` receives ``f(i)``.  Reconstruction is
Lagrange interpolation at 0 from any ``d + 1`` shares.  The scheme is
additively homomorphic, and multiplying two shares of degree-1 polynomials
yields a share of a degree-2 polynomial of the *product* — exactly the
trick Prism's PSI-Sum uses (Eq. 11): three servers each multiply the
owners' degree-1 data shares by the querier's degree-1 indicator shares
locally, and the owner interpolates the degree-2 result, with no
inter-server degree-reduction round.

The default field prime is ``2**31 - 1``: shares are uint32 vectors
(:func:`repro.crypto.widths.share_dtype`) and every product of two
field elements fits the uint64 a kernel widens it to.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.primes import is_prime, modinv
from repro.crypto.widths import share_dtype
from repro.exceptions import ShareError

#: Largest Mersenne prime below 2**31; products of two field elements fit int64.
DEFAULT_FIELD_PRIME = 2_147_483_647

#: Largest field prime for which the numpy fast path is sound.
_INT64_SAFE_LIMIT = 3_037_000_499  # floor(sqrt(2**63 - 1))

_UINT64_MAX = 2**64 - 1


class ShamirSharing:
    """Shamir secret sharing over ``F_prime`` with numpy vector support.

    Args:
        prime: field modulus; must be prime.  Primes up to
            ``sqrt(2**63)`` use the vectorised int64 path; larger primes
            fall back to exact Python-int arithmetic transparently.
        num_shares: number of evaluation points (servers); points are
            ``1..num_shares``.
        degree: polynomial degree ``d``; any ``d + 1`` shares reconstruct.
        rng: numpy random generator for coefficient randomness.
    """

    def __init__(self, prime: int = DEFAULT_FIELD_PRIME, num_shares: int = 3,
                 degree: int = 1, rng: np.random.Generator | None = None):
        if not is_prime(prime):
            raise ShareError(f"{prime} is not prime")
        if degree < 1:
            raise ShareError("degree must be at least 1")
        if num_shares <= degree:
            raise ShareError(
                f"{num_shares} shares cannot reconstruct a degree-{degree} secret"
            )
        if num_shares >= prime:
            raise ShareError("need prime > num_shares for distinct points")
        self.prime = prime
        self.num_shares = num_shares
        self.degree = degree
        self._rng = rng if rng is not None else np.random.default_rng()
        self._int64_ok = prime <= _INT64_SAFE_LIMIT
        #: Width of share vectors on the numpy path (uint32 for every
        #: prime it accepts).
        self.dtype = share_dtype(prime)

    # -- sharing ------------------------------------------------------------

    def share_vector(self, secrets: np.ndarray) -> list[np.ndarray]:
        """Share a secret vector; returns ``num_shares`` arrays of
        :attr:`dtype` (coefficients are drawn as int64, so the draw
        stream does not depend on the width).

        Share ``phi`` (1-indexed evaluation point) of cell ``i`` is
        ``f_i(phi)`` where ``f_i`` is a fresh random degree-``d`` polynomial
        with constant term ``secrets[i]``.
        """
        secrets = self._reduced(secrets)
        coeffs = [
            self._rng.integers(0, self.prime, size=secrets.shape, dtype=np.int64)
            for _ in range(self.degree)
        ]
        shares = []
        for point in range(1, self.num_shares + 1):
            powers = [pow(point, k, self.prime)
                      for k in range(1, self.degree + 1)]
            shares.append(self._combine([secrets] + coeffs, [1] + powers))
        return shares

    def share_scalar(self, secret: int) -> list[int]:
        """Share one secret value; returns ``num_shares`` Python ints."""
        vec = self.share_vector(np.asarray([secret], dtype=np.int64))
        return [int(v[0]) for v in vec]

    # -- reconstruction -----------------------------------------------------

    def lagrange_weights(self, points: list[int]) -> list[int]:
        """Lagrange coefficients at x=0 for the given evaluation points.

        ``secret = sum_i weights[i] * share_at(points[i]) mod prime``.
        """
        if len(set(points)) != len(points):
            raise ShareError(f"duplicate evaluation points: {points}")
        weights = []
        for i, xi in enumerate(points):
            num, den = 1, 1
            for j, xj in enumerate(points):
                if i == j:
                    continue
                num = (num * xj) % self.prime
                den = (den * (xj - xi)) % self.prime
            weights.append((num * modinv(den, self.prime)) % self.prime)
        return weights

    def reconstruct_vector(self, shares: list[np.ndarray],
                           points: list[int] | None = None,
                           degree: int | None = None) -> np.ndarray:
        """Interpolate secret vectors from share vectors.

        Args:
            shares: one array per evaluation point.
            points: evaluation points matching ``shares`` (default
                ``1..len(shares)``).
            degree: polynomial degree of the shared values (default: the
                scheme degree).  Pass ``2 * degree`` after multiplying two
                share vectors together.

        Raises:
            ShareError: if fewer than ``degree + 1`` shares are supplied.
        """
        degree = self.degree if degree is None else degree
        points = points if points is not None else list(range(1, len(shares) + 1))
        if len(shares) != len(points):
            raise ShareError("shares and points length mismatch")
        if len(shares) < degree + 1:
            raise ShareError(
                f"degree-{degree} reconstruction needs {degree + 1} shares, "
                f"got {len(shares)}"
            )
        weights = self.lagrange_weights(points[: degree + 1])
        terms = [self._reduced(s) for s in shares[: degree + 1]]
        return self._combine(terms, weights)

    def reconstruct_scalar(self, shares: list[int],
                           points: list[int] | None = None,
                           degree: int | None = None) -> int:
        """Scalar convenience wrapper over :meth:`reconstruct_vector`."""
        arrays = [np.asarray([s], dtype=np.int64) for s in shares]
        return int(self.reconstruct_vector(arrays, points, degree)[0])

    # -- homomorphisms ------------------------------------------------------

    def add_shares(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Share of ``x + y`` from same-point shares of ``x`` and ``y``."""
        return self._mod_add(self._reduced(a), self._reduced(b))

    def mul_shares(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Share of ``x * y`` (degree doubles; reconstruct with 2d+1 shares)."""
        return self._mod_mul(self._reduced(a), self._reduced(b))

    # -- field arithmetic helpers --------------------------------------------

    def _reduced(self, a) -> np.ndarray:
        """``a`` as field elements of :attr:`dtype`; reduced only when out
        of range."""
        if not self._int64_ok:
            a = np.asarray(a, dtype=np.int64)
            if a.size and (a.min() < 0 or a.max() >= self.prime):
                return np.mod(a, self.prime)
            return a
        a = np.asarray(a)
        if a.dtype.kind not in "iu":
            a = a.astype(np.int64)
        if a.size and (a.min() < 0 or a.max() >= self.prime):
            a = np.mod(a, self.prime)
        return a.astype(self.dtype, copy=False)

    def _combine(self, vectors: list[np.ndarray],
                 scalars: list[int]) -> np.ndarray:
        """``sum_k scalars[k] * vectors[k] mod prime`` over field elements.

        ``vectors`` must hold reduced field elements and ``scalars`` lie
        in ``[0, prime)``.  On the numpy path the products are summed
        unreduced in uint64 while a running bound shows the sum fits (a
        scalar of 1 adds the vector as is); the sum is reduced only when
        the next product could overflow it, and once at the end, into
        :attr:`dtype`.
        """
        if not self._int64_ok:
            acc = np.zeros_like(vectors[0])
            for v, k in zip(vectors, scalars):
                acc = self._mod_add(acc, self._mod_mul_scalar(v, k))
            return acc
        top = self.prime - 1
        acc = np.multiply(vectors[0], scalars[0], dtype=np.uint64,
                          casting="unsafe")
        term = np.empty_like(acc)
        bound = top * scalars[0]
        for v, k in zip(vectors[1:], scalars[1:]):
            if bound + top * k > _UINT64_MAX:
                np.remainder(acc, self.prime, out=acc)
                bound = top
            if k == 1:
                np.add(acc, v, out=acc, dtype=np.uint64, casting="unsafe")
            else:
                np.multiply(v, k, out=term, dtype=np.uint64,
                            casting="unsafe")
                acc += term
            bound += top * k
        out = np.empty(acc.shape, dtype=self.dtype)
        np.remainder(acc, self.prime, out=out)
        return out

    def _mod_add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._int64_ok:
            return self._combine([a, b], [1, 1])
        return np.mod(a + b, self.prime)

    def _mod_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._int64_ok:
            out = np.multiply(a, b, dtype=np.uint64)
            np.remainder(out, self.prime, out=out)
            return out.astype(self.dtype)
        flat_a, flat_b = a.ravel(), b.ravel()
        out = np.fromiter(
            ((int(x) * int(y)) % self.prime for x, y in zip(flat_a, flat_b)),
            dtype=object, count=flat_a.size,
        ).astype(object)
        return np.asarray(
            [int(v) for v in out], dtype=np.int64
        ).reshape(a.shape) if self.prime <= 2**62 else out.reshape(a.shape)

    def _mod_mul_scalar(self, a: np.ndarray, scalar: int) -> np.ndarray:
        return np.asarray(
            [(int(v) * scalar) % self.prime for v in a.ravel()], dtype=np.int64
        ).reshape(a.shape)
