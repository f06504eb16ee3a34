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

The default field prime is ``2**31 - 1``.  Every field prime lies below
``2**32``: shares are uint32 vectors
(:func:`repro.crypto.widths.share_dtype`) and every product of two
field elements fits the uint64 a kernel widens it to.

Dealing and Lagrange interpolation are one linear combination of share
vectors, :func:`numpy_combine_span`; ``ShamirSharing._combine`` runs
its compiled twin (:func:`repro.kernels.combine_span`) where the kernel
tier engages.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.crypto.primes import is_prime, modinv
from repro.crypto.widths import share_dtype
from repro.exceptions import ShareError

#: The Mersenne prime ``2**31 - 1``; the compiled combine reduces by it
#: without a division.
DEFAULT_FIELD_PRIME = 2_147_483_647

#: Field primes stay below this, so shares are uint32 and a product of
#: two field elements fits uint64.
FIELD_PRIME_LIMIT = 2**32

_UINT64_MAX = 2**64 - 1


def numpy_combine_span(vectors, weight_rows, p: int, outs):
    """§3.1: ``outs[r][i] = Σ_k weight_rows[r][k] · vectors[k][i] mod p``.

    The Shamir linear combination: dealing evaluates each cell's
    polynomial at one point per row (weights ``1, x, x², …`` over the
    secret and its coefficients), and interpolation at 0 weighs each
    share by its Lagrange coefficient (one row).  ``vectors`` hold field
    elements and weights lie in ``[0, p)``.  The products are summed
    unreduced in uint64 while a running bound shows the sum fits (a
    weight of 1 adds the vector as is); the sum is reduced only when the
    next product could overflow it, and once at the end, into the uint32
    output row.  numpy twin of :func:`repro.kernels.combine_span`.
    """
    top = p - 1

    def kernel(lo: int, hi: int) -> None:
        for weights, out in zip(weight_rows, outs):
            acc = np.multiply(vectors[0][lo:hi], weights[0],
                              dtype=np.uint64, casting="unsafe")
            term = np.empty_like(acc)
            bound = top * weights[0]
            for v, k in zip(vectors[1:], weights[1:]):
                if bound + top * k > _UINT64_MAX:
                    np.remainder(acc, p, out=acc)
                    bound = top
                if k == 1:
                    np.add(acc, v[lo:hi], out=acc, dtype=np.uint64,
                           casting="unsafe")
                else:
                    np.multiply(v[lo:hi], k, out=term, dtype=np.uint64,
                                casting="unsafe")
                    acc += term
                bound += top * k
            np.remainder(acc, p, out=out[lo:hi])
    return kernel


class ShamirSharing:
    """Shamir secret sharing over ``F_prime`` with numpy vector support.

    Args:
        prime: field modulus; must be a prime below ``2**32``.
        num_shares: number of evaluation points (servers); points are
            ``1..num_shares``.
        degree: polynomial degree ``d``; any ``d + 1`` shares reconstruct.
        rng: numpy random generator for coefficient randomness.
    """

    def __init__(self, prime: int = DEFAULT_FIELD_PRIME, num_shares: int = 3,
                 degree: int = 1, rng: np.random.Generator | None = None):
        if prime >= FIELD_PRIME_LIMIT:
            raise ShareError(
                f"field prime {prime} does not fit uint32 share vectors "
                f"(must be below 2**32)")
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
        #: Width of share vectors (uint32 for every prime it accepts).
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
        rows = [[pow(point, k, self.prime) for k in range(self.degree + 1)]
                for point in range(1, self.num_shares + 1)]
        return self._combine([secrets] + coeffs, rows)

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
        return self._combine(terms, [weights])[0]

    def reconstruct_scalar(self, shares: list[int],
                           points: list[int] | None = None,
                           degree: int | None = None) -> int:
        """Scalar convenience wrapper over :meth:`reconstruct_vector`."""
        arrays = [np.asarray([s], dtype=np.int64) for s in shares]
        return int(self.reconstruct_vector(arrays, points, degree)[0])

    # -- homomorphisms ------------------------------------------------------

    def add_shares(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Share of ``x + y`` from same-point shares of ``x`` and ``y``."""
        return self._combine([self._reduced(a), self._reduced(b)],
                             [[1, 1]])[0]

    def mul_shares(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Share of ``x * y`` (degree doubles; reconstruct with 2d+1 shares)."""
        out = np.multiply(self._reduced(a), self._reduced(b), dtype=np.uint64)
        np.remainder(out, self.prime, out=out)
        return out.astype(self.dtype)

    # -- field arithmetic helpers --------------------------------------------

    def _reduced(self, a) -> np.ndarray:
        """``a`` as field elements of :attr:`dtype`; reduced only when out
        of range."""
        a = np.asarray(a)
        if a.dtype.kind not in "iu":
            a = a.astype(np.int64)
        if a.size and ((a.dtype.kind == "i" and a.min() < 0)
                       or a.max() >= self.prime):
            a = np.mod(a, self.prime)
        return a.astype(self.dtype, copy=False)

    def _combine(self, vectors: list[np.ndarray],
                 weight_rows: list[list[int]]) -> list[np.ndarray]:
        """One vector ``sum_k row[k] * vectors[k] mod prime`` per weight
        row, shaped like ``vectors[0]``: the compiled span where the
        kernel tier engages, else :func:`numpy_combine_span`."""
        flat = [np.ravel(v) for v in vectors]
        if len({v.size for v in flat}) != 1:
            raise ShareError(f"share vectors of lengths "
                             f"{[v.size for v in flat]} do not line up")
        n = flat[0].size
        outs = [np.empty(n, dtype=self.dtype) for _ in weight_rows]
        kernel = (kernels.combine_span(flat, weight_rows, self.prime, outs)
                  or numpy_combine_span(flat, weight_rows, self.prime, outs))
        kernel(0, n)
        return [out.reshape(np.shape(vectors[0])) for out in outs]
