"""Cyclic multiplicative groups modulo a prime (§3.1).

Prism's PSI construction needs a generator ``g`` of the order-``delta``
subgroup of ``Z_eta^*`` where ``delta | eta - 1``.  Servers exponentiate
``g`` modulo ``eta' = alpha * eta`` and owners reduce the product modulo
``eta``; the modular identity ``(x mod alpha*eta) mod eta == x mod eta``
makes the two views consistent.

Because every exponent the servers ever use is already reduced modulo
``delta`` (the subgroup order), we can precompute the full power table
``g^0 .. g^(delta-1) mod eta'`` once and turn the per-cell exponentiation
into a vectorised table lookup — this is the key to making the Python
reproduction fast enough for the paper's parameter sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.primes import factorize, is_prime
from repro.exceptions import ParameterError

#: Default multiplier hiding ``eta`` inside ``eta' = alpha * eta``.
DEFAULT_ALPHA = 13


def element_order(x: int, modulus: int, group_order: int) -> int:
    """Multiplicative order of ``x`` modulo a prime ``modulus``.

    Uses the divisors of ``group_order`` (which must be a multiple of the
    true order, e.g. ``modulus - 1``).
    """
    if x % modulus == 0:
        raise ParameterError("0 has no multiplicative order")
    order = group_order
    for p in factorize(group_order):
        while order % p == 0 and pow(x, order // p, modulus) == 1:
            order //= p
    return order


def find_primitive_root(modulus: int) -> int:
    """Smallest primitive root modulo a prime ``modulus``."""
    if not is_prime(modulus):
        raise ParameterError(f"{modulus} is not prime")
    if modulus == 2:
        return 1
    order = modulus - 1
    prime_factors = list(factorize(order))
    for g in range(2, modulus):
        if all(pow(g, order // p, modulus) != 1 for p in prime_factors):
            return g
    raise ParameterError(f"no primitive root modulo {modulus}")  # pragma: no cover


def find_subgroup_generator(eta: int, delta: int) -> int:
    """Generator of the (unique) order-``delta`` subgroup of ``Z_eta^*``.

    Computed as ``G ** ((eta - 1) / delta) mod eta`` for a primitive root
    ``G``; rejects the degenerate identity element.

    Raises:
        ParameterError: unless ``delta`` is a prime dividing ``eta - 1``.
    """
    if not is_prime(delta):
        raise ParameterError(f"delta={delta} must be prime")
    if (eta - 1) % delta != 0:
        raise ParameterError(
            f"delta={delta} must divide eta-1={eta - 1} for a subgroup to exist"
        )
    root = find_primitive_root(eta)
    g = pow(root, (eta - 1) // delta, eta)
    if g == 1:  # pragma: no cover - cannot happen for prime delta > 1
        raise ParameterError("degenerate subgroup generator")
    return g


def subgroup_elements(g: int, delta: int, modulus: int) -> list[int]:
    """All elements ``g^0 .. g^(delta-1) mod modulus`` of the subgroup."""
    elements = []
    x = 1
    for _ in range(delta):
        elements.append(x)
        x = (x * g) % modulus
    return elements


class CyclicGroup:
    """Order-``delta`` cyclic subgroup with a server-side power table.

    The table is computed modulo ``eta_prime`` (the only modulus servers
    know); owner-side reductions modulo ``eta`` remain consistent because
    ``eta | eta_prime``.

    Attributes:
        delta: prime order of the subgroup (also the additive-share modulus).
        eta: prime modulus of the true group (owner knowledge).
        eta_prime: ``alpha * eta`` (server knowledge).
        g: subgroup generator.
    """

    def __init__(self, delta: int, eta: int, alpha: int = DEFAULT_ALPHA,
                 g: int | None = None):
        if alpha <= 1:
            raise ParameterError("alpha must exceed 1 so eta' != eta")
        if (eta - 1) % delta != 0:
            raise ParameterError(f"delta={delta} must divide eta-1={eta - 1}")
        self.delta = delta
        self.eta = eta
        self.alpha = alpha
        self.eta_prime = alpha * eta
        self.g = g if g is not None else find_subgroup_generator(eta, delta)
        if pow(self.g, delta, eta) != 1:
            raise ParameterError("g does not generate an order-delta subgroup")
        if self.eta_prime >= 2**62:
            raise ParameterError(
                "eta' too large for the int64 power-table fast path; "
                "choose smaller eta/alpha"
            )
        self._power_table = self._build_power_table()

    def _build_power_table(self) -> np.ndarray:
        table = np.empty(self.delta, dtype=np.int64)
        x = 1
        for i in range(self.delta):
            table[i] = x
            x = (x * self.g) % self.eta_prime
        return table

    @property
    def power_table(self) -> np.ndarray:
        """Read-only view of ``g^k mod eta'`` for ``k in [0, delta)``."""
        view = self._power_table.view()
        view.setflags(write=False)
        return view

    def pow(self, exponent: int) -> int:
        """``g ** exponent mod eta'`` (exponent reduced mod delta)."""
        return int(self._power_table[exponent % self.delta])

    def pow_vector(self, exponents: np.ndarray) -> np.ndarray:
        """Vectorised ``g ** e mod eta'`` for an array of exponents.

        This is the inner loop of the server-side PSI kernel (Eq. 3).
        """
        reduced = np.mod(exponents, self.delta)
        return self._power_table[reduced]

    def reduce_to_eta(self, values: np.ndarray | int):
        """Owner-side reduction ``x mod eta`` (valid since eta | eta')."""
        if isinstance(values, np.ndarray):
            return np.mod(values, self.eta)
        return values % self.eta

    def elements(self) -> list[int]:
        """Subgroup elements modulo ``eta`` (for analysis/tests)."""
        return subgroup_elements(self.g % self.eta, self.delta, self.eta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CyclicGroup(delta={self.delta}, eta={self.eta}, "
            f"alpha={self.alpha}, g={self.g})"
        )
