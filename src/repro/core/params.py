"""System parameters and per-entity knowledge views (§4).

The initiator knows everything; every other entity receives a *view* that
contains exactly the parameters §4 grants it:

* **Owners** know ``m``, ``delta``, ``eta``, the hash/domain, ``PF``,
  ``PF_db1``/``PF_db2``, the polynomial ``F`` and the extrema modulus —
  but **not** the generator ``g`` and **not** the servers' PRG seed
  (unawareness of ``g`` is what hides "how many owners hold value v",
  see the §5.1 lemma).
* **Servers** know ``m``, ``delta``, ``g``, ``eta'``, ``PF``,
  ``PF_s1``/``PF_s2``, and the common PRG seed — but **not** ``eta``
  (they cannot reduce into the real group) and **not** ``PF_db*``
  (which is what makes verification unforgeable).
* The **announcer** knows only the extrema modulus.

Tests assert these views structurally withhold the forbidden parameters.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.crypto.permutation import Permutation
from repro.crypto.polynomial import OrderPreservingPolynomial
from repro.crypto.widths import share_dtype
from repro.data.domain import Domain, ProductDomain
from repro.data.storage import ShareKind


@dataclasses.dataclass(frozen=True)
class ServerGroupView:
    """What a server knows of the cyclic group: ``g``, ``delta``, ``eta'``.

    Deliberately excludes ``eta``.  Exponentiation uses the precomputed
    power table ``g^k mod eta'`` for ``k in [0, delta)``.
    """

    delta: int
    eta_prime: int
    g: int
    power_table: np.ndarray

    def pow_vector(self, exponents: np.ndarray) -> np.ndarray:
        """Vectorised ``g ** (e mod delta) mod eta'`` — the Eq. 3 kernel."""
        return self.power_table[np.mod(exponents, self.delta)]

    def folded_tables(self, m_rows) -> np.ndarray:
        """Per-row Eq. 3 tables indexed by an owner sum mod δ.

        Row ``q``, entry ``k`` is ``g^((k − m_rows[q]) mod δ) mod η'`` for
        ``k ∈ [0, δ)``: the sweep folds the ``⊖ A(m)`` into one gather
        with no division per cell.  Entries are at the width of η'.
        """
        sums = np.arange(self.delta, dtype=np.int64)
        m_col = np.asarray(m_rows, dtype=np.int64).reshape(-1, 1)
        return self.power_table[np.mod(sums - m_col, self.delta)].astype(
            share_dtype(self.eta_prime))


@dataclasses.dataclass(frozen=True)
class OwnerParams:
    """Parameters dealt to every DB owner (assumptions i–viii of §4)."""

    num_owners: int
    delta: int
    eta: int
    field_prime: int
    domain: Domain | ProductDomain
    pf: Permutation
    pf_owners: Permutation
    pf_db1: Permutation
    pf_db2: Permutation
    polynomial: OrderPreservingPolynomial
    extrema_modulus: int
    hash_seed: int


@dataclasses.dataclass(frozen=True)
class ServerParams:
    """Parameters dealt to every server (§4, 'parameters known to servers')."""

    num_owners: int
    delta: int
    group: ServerGroupView
    field_prime: int
    pf: Permutation
    pf_owners: Permutation
    pf_s1: Permutation
    pf_s2: Permutation
    prg_seed: int
    extrema_modulus: int
    m_share: int  # this server's additive share of m (provided once, §4)

    # Stream widths (see :mod:`repro.crypto.widths`): χ shares and PSU
    # outputs mod δ, PSI/verification/count outputs mod η', aggregation
    # shares, z shares and outputs mod p.

    @property
    def additive_dtype(self) -> np.dtype:
        return share_dtype(self.delta)

    @property
    def group_dtype(self) -> np.dtype:
        return share_dtype(self.group.eta_prime)

    @property
    def shamir_dtype(self) -> np.dtype:
        return share_dtype(self.field_prime)

    def modulus_of(self, kind: ShareKind) -> int:
        """The modulus a stored column of ``kind`` is shared under."""
        return self.delta if kind is ShareKind.ADDITIVE else self.field_prime


@dataclasses.dataclass(frozen=True)
class AnnouncerParams:
    """The announcer's knowledge (§3.2): the extrema-share modulus, plus —
    only when the deployment opts into announcer-driven bucket traversal
    (the §6.6 note "the role of DB owners in traversing the tree can be
    eliminated by involving S_a") — the group modulus ``eta`` it needs to
    recognise common bucket nodes.  Granting ``eta`` lets the announcer
    learn *which bucket nodes* are common (not the data); deployments that
    must not leak that keep the default owner-driven traversal.
    """

    extrema_modulus: int
    eta: int | None = None
