"""Additive secret sharing over the group Z_delta (§3.1).

A secret ``s`` is split into ``c`` shares that sum to ``s`` modulo
``delta``; any ``c - 1`` shares are uniformly random and independent of the
secret.  The scheme is additively homomorphic: adding shares pointwise adds
the secrets.

Prism keeps ``delta`` small (a prime slightly above the owner count), which
lets us store whole share *vectors* as narrow numpy arrays — one byte per
cell at the default δ = 101 (:func:`repro.crypto.widths.share_dtype`) — and
run the server-side kernels fully vectorised.  For the extrema protocols (§6.3) the
shared values exceed 64 bits, so a Python-int code path is provided as well
(:func:`share_bigint` / :func:`reconstruct_bigint`).
"""

from __future__ import annotations

import numpy as np

from repro.crypto.prg import SeededPRG
from repro.crypto.widths import share_dtype
from repro.exceptions import ShareError


class AdditiveSharing:
    """Additive secret sharing over ``Z_modulus``.

    Args:
        modulus: group order ``delta`` (prime in Prism, though the scheme
            itself works for any modulus > 1).
        num_shares: number of servers ``c`` (Prism uses 2 for additive data).
        rng: numpy random generator for share randomness; pass a seeded
            generator for reproducible protocol runs.
    """

    def __init__(self, modulus: int, num_shares: int = 2,
                 rng: np.random.Generator | None = None):
        if modulus <= 1:
            raise ShareError(f"modulus must exceed 1, got {modulus}")
        if num_shares < 2:
            raise ShareError("additive sharing needs at least 2 shares")
        self.modulus = modulus
        self.num_shares = num_shares
        self.dtype = share_dtype(modulus)
        self._rng = rng if rng is not None else np.random.default_rng()

    # -- vector path (numpy) ------------------------------------------------

    def share_vector(self, secrets: np.ndarray) -> list[np.ndarray]:
        """Share a vector of secrets; returns ``num_shares`` arrays of
        :attr:`dtype`, each with the shape of ``secrets``.

        The first ``c - 1`` shares are uniform in ``[0, modulus)`` (drawn
        as int64, so the draw stream does not depend on the width); the
        last is the modular difference.
        """
        secrets = np.asarray(secrets)
        if secrets.dtype.kind not in "iu":
            secrets = secrets.astype(np.int64)
        if secrets.size and (secrets.min() < 0
                             or secrets.max() >= self.modulus):
            secrets = np.mod(secrets, self.modulus)
        shares = [
            self._rng.integers(0, self.modulus, size=secrets.shape,
                               dtype=np.int64).astype(self.dtype)
            for _ in range(self.num_shares - 1)
        ]
        # last = (secret − Σ shares) mod modulus, formed as secret +
        # Σ (modulus − share) < c·modulus in an unsigned width that holds
        # it, then brought below modulus by c − 1 branch-free conditional
        # subtracts: v − modulus wraps above v exactly when v < modulus,
        # so min(v, v − modulus) subtracts only where v ≥ modulus.
        last = secrets.astype(share_dtype(self.num_shares * self.modulus))
        wrapped = np.empty_like(last)
        for s in shares:
            last += np.subtract(self.modulus, s, dtype=last.dtype)
        for _ in shares:
            np.subtract(last, self.modulus, out=wrapped)
            np.minimum(last, wrapped, out=last)
        shares.append(last.astype(self.dtype, copy=False))
        return shares

    def reconstruct_vector(self, shares: list[np.ndarray]) -> np.ndarray:
        """Sum share vectors modulo the group order."""
        if len(shares) != self.num_shares:
            raise ShareError(
                f"need exactly {self.num_shares} shares, got {len(shares)}"
            )
        return self._combine(shares, 1)

    def add_shares(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Homomorphic addition: share of ``x + y`` from shares of x and y."""
        return self._combine([a, b], 1)

    def sub_shares(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Homomorphic subtraction (the ``⊖`` of Eq. 3)."""
        return self._combine([a, b], -1)

    def _combine(self, vectors, sign: int) -> np.ndarray:
        """``v0 + sign·(v1 + …) mod modulus`` at :attr:`dtype` width."""
        total = np.mod(np.asarray(vectors[0], dtype=np.int64), self.modulus)
        for v in vectors[1:]:
            total += sign * np.mod(np.asarray(v, dtype=np.int64), self.modulus)
        return np.mod(total, self.modulus).astype(self.dtype)

    # -- scalar path --------------------------------------------------------

    def share_scalar(self, secret: int) -> list[int]:
        """Share one small secret; returns ``num_shares`` Python ints."""
        vec = self.share_vector(np.asarray([secret], dtype=np.int64))
        return [int(v[0]) for v in vec]

    def reconstruct_scalar(self, shares: list[int]) -> int:
        """Reconstruct one small secret from scalar shares."""
        if len(shares) != self.num_shares:
            raise ShareError(
                f"need exactly {self.num_shares} shares, got {len(shares)}"
            )
        return sum(int(s) for s in shares) % self.modulus


def share_bigint(secret: int, modulus: int, num_shares: int,
                 prg: SeededPRG) -> list[int]:
    """Additively share an arbitrary-precision secret over ``Z_modulus``.

    Used by the extrema protocols where ``F(M) + r`` exceeds 64 bits.

    Args:
        secret: value to share (reduced modulo ``modulus``).
        modulus: group order; must exceed 1.
        num_shares: number of shares (>= 2).
        prg: deterministic randomness source.
    """
    if modulus <= 1:
        raise ShareError(f"modulus must exceed 1, got {modulus}")
    if num_shares < 2:
        raise ShareError("additive sharing needs at least 2 shares")
    shares = [prg.integer(0, modulus) for _ in range(num_shares - 1)]
    last = (secret - sum(shares)) % modulus
    shares.append(last)
    return shares


def reconstruct_bigint(shares: list[int], modulus: int) -> int:
    """Reconstruct an arbitrary-precision additively shared secret."""
    if not shares:
        raise ShareError("no shares supplied")
    return sum(shares) % modulus
