"""The initiator (§3.2 entity 3, §4 "parameters known to the initiator").

A trusted parameter-dealing entity — analogous to a PKI certificate
authority.  It never touches data or results.  Its jobs:

* choose the moduli: a prime ``delta > m``, a prime ``eta`` with
  ``delta | eta - 1``, the server-side modulus ``eta' = alpha * eta``,
  the Shamir field prime, and the extrema modulus (a prime exceeding any
  blinded value ``F(M) + r``);
* find the generator ``g`` of the order-``delta`` subgroup;
* pick the permutation functions, including the Eq. (1) quadruple;
* pick the order-preserving polynomial ``F`` of degree ``m + 1``;
* deal additive shares of ``m`` to the servers;
* hand every entity its knowledge view (:mod:`repro.core.params`).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.params import (
    AnnouncerParams,
    OwnerParams,
    ServerGroupView,
    ServerParams,
)
from repro.crypto.groups import DEFAULT_ALPHA, CyclicGroup
from repro.crypto.permutation import Permutation, equation1_quadruple
from repro.crypto.polynomial import OrderPreservingPolynomial
from repro.crypto.primes import find_eta_for_delta, is_prime, next_prime
from repro.crypto.prg import derive_seed
from repro.crypto.shamir import DEFAULT_FIELD_PRIME, FIELD_PRIME_LIMIT
from repro.data.domain import Domain, ProductDomain
from repro.exceptions import ParameterError


def group_moduli(num_owners: int, delta: int | None = None) -> tuple[int, int]:
    """The additive-group prime ``delta`` and the group prime ``eta``.

    ``delta=None`` picks the smallest prime above ``max(m, 100)``; ``eta``
    is the smallest prime ``>= delta`` with ``delta | eta - 1``.  The
    :class:`Initiator` and the cost model both derive the moduli here.

    Raises:
        ParameterError: if ``delta`` is not a prime above ``num_owners``.
    """
    delta = delta if delta is not None else next_prime(max(num_owners, 100))
    if not is_prime(delta):
        raise ParameterError(f"delta={delta} must be prime")
    if delta <= num_owners:
        raise ParameterError(
            f"delta={delta} must exceed the owner count {num_owners} "
            f"(the χ-cell sums live in [0, m])"
        )
    return delta, find_eta_for_delta(delta, minimum=delta)


class IndicatorShareCache:
    """Memoised querier indicator-share vectors (Phase-2 skip cache).

    Aggregation queries spend an owner-side round Shamir-sharing the 0/1
    intersection-indicator vector ``z`` (§6.1 Step 3).  Repeated or
    overlapping queries — several aggregation attributes over the same
    set attribute, a dashboard refreshing the same query — regenerate
    byte-identical-purpose shares every time.  This cache, held by the
    initiator as part of the deployment's query session state, memoises
    the dealt share triple keyed by

    ``(stream, querier, column, owner-subset, digest(packed bits))``

    so a repeated query reuses the already-dealt shares instead of
    re-running share generation.  Keying on a digest of the membership
    vector's length and ``np.packbits`` of its 0/1 entries makes
    staleness impossible within one outsourced snapshot (different
    results can never collide), and the system invalidates the whole
    cache whenever owners re-outsource (the snapshot changes).

    Reusing indicator shares across queries is safe in the semi-honest
    model reproduced here: the shares are information-theoretically
    hiding, and reuse reveals only that two queries used the same
    indicator — which the access pattern (same column, same round shape)
    reveals anyway.

    Args:
        max_entries: size cap; the oldest entry is evicted when a put
            would exceed it.  Each entry pins three full-domain share
            vectors (12·b bytes at uint32), so an unbounded cache would grow with
            every distinct (querier, owner subset, membership) shape a
            long-lived deployment serves.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ParameterError("indicator cache needs at least one slot")
        self.max_entries = max_entries
        self._entries: dict[tuple, list[np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    @staticmethod
    def key(stream: str, querier: int, column: str, owner_ids,
            member: np.ndarray) -> tuple:
        """Cache key for one indicator stream of one query.

        The digest covers the vector's length and its packed bits, so
        two distinct 0/1 vectors never share a key.

        Raises:
            ParameterError: if ``member`` holds a value outside {0, 1}.
        """
        member = np.asarray(member)
        bits = member.astype(bool)
        if not np.array_equal(bits, member):
            raise ParameterError("indicator vectors must hold only 0 and 1")
        digest = hashlib.blake2b(member.size.to_bytes(8, "little"),
                                 digest_size=16)
        digest.update(np.packbits(bits).tobytes())
        owner_key = tuple(owner_ids) if owner_ids is not None else None
        return (stream, querier, column, owner_key, digest.digest())

    def get(self, key: tuple) -> list[np.ndarray] | None:
        """The cached share triple, counting the hit/miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: tuple, shares: list[np.ndarray]) -> None:
        """Store a dealt share triple (arrays are frozen against mutation).

        Evicts the oldest entry when the cap is reached (dicts iterate in
        insertion order, so the first key is the oldest).
        """
        for share in shares:
            share.setflags(write=False)
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
        self._entries[key] = list(shares)

    def invalidate(self) -> None:
        """Drop every entry (owners re-outsourced; the snapshot changed)."""
        self._entries.clear()
        self.invalidations += 1

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "invalidations": self.invalidations,
                "evictions": self.evictions}


class Initiator:
    """Generates and deals all Prism system parameters.

    Args:
        num_owners: ``m`` (> 2 per the paper; >= 2 accepted for the
            two-owner comparison experiment of Table 13).
        domain: the PSI/PSU attribute domain (length ``b`` of the χ table).
        seed: master seed; every derived secret (permutations, PRG seed,
            share randomness) comes from it, so whole protocol runs are
            reproducible.
        delta: additive-group prime; default: smallest prime > max(m, 100).
        alpha: multiplier hiding ``eta`` inside ``eta' = alpha * eta``.
        field_prime: Shamir field prime for aggregation columns; below
            ``2**32``, so shares are uint32 vectors.
        value_bound: inclusive upper bound for aggregation-attribute values;
            sizes the extrema modulus so ``F(M) + r`` never wraps.
    """

    def __init__(self, num_owners: int, domain: Domain | ProductDomain,
                 seed: int = 0, delta: int | None = None,
                 alpha: int = DEFAULT_ALPHA,
                 field_prime: int = DEFAULT_FIELD_PRIME,
                 value_bound: int = 10_000):
        if num_owners < 2:
            raise ParameterError("Prism needs at least two DB owners")
        if field_prime >= FIELD_PRIME_LIMIT:
            raise ParameterError(
                f"field_prime={field_prime} must be below 2**32: Shamir "
                f"shares are uint32 field elements")
        self.num_owners = num_owners
        self.domain = domain
        self.seed = seed
        self.delta, eta = group_moduli(num_owners, delta)
        self.group = CyclicGroup(self.delta, eta, alpha=alpha)
        self.field_prime = field_prime
        self.value_bound = value_bound

        self.polynomial = OrderPreservingPolynomial.for_owner_count(
            num_owners, seed=derive_seed(seed, "F")
        )
        self.extrema_modulus = next_prime(
            self.polynomial.max_blinded_value(value_bound)
        )

        b = domain.size
        self.pf = Permutation.random(b, derive_seed(seed, "PF"), "PF")
        # PF over owner slots for the §6.3 extrema rounds — the paper's PF
        # is "known to DB owners and servers" (§4 assumption viii).
        self.pf_owners = Permutation.random(
            num_owners, derive_seed(seed, "PF-owners"), "PF-owners"
        )
        self._quadruple = equation1_quadruple(b, derive_seed(seed, "EQ1"))
        self.prg_seed = derive_seed(seed, "server-prg")
        self.hash_seed = derive_seed(seed, "domain-hash")

        # Additive shares of m for the servers (any trusted party may deal
        # these, §4); drawn deterministically from the master seed.
        rng = np.random.default_rng(derive_seed(seed, "m-shares"))
        first = int(rng.integers(0, self.delta))
        self._m_shares = [first, (num_owners - first) % self.delta]

        # Query-session state: memoised indicator shares for Phase-2 reuse
        # (batched and repeated aggregation queries).
        self.indicator_cache = IndicatorShareCache()

    # -- dealing ------------------------------------------------------------

    def owner_params(self) -> OwnerParams:
        """The knowledge view dealt to every DB owner."""
        return OwnerParams(
            num_owners=self.num_owners,
            delta=self.delta,
            eta=self.group.eta,
            field_prime=self.field_prime,
            domain=self.domain,
            pf=self.pf,
            pf_owners=self.pf_owners,
            pf_db1=self._quadruple["pf_db1"],
            pf_db2=self._quadruple["pf_db2"],
            polynomial=self.polynomial,
            extrema_modulus=self.extrema_modulus,
            hash_seed=self.hash_seed,
        )

    def server_params(self, server_index: int) -> ServerParams:
        """The knowledge view dealt to server ``server_index`` (0-based).

        Only the two additive-share servers (indices 0 and 1) receive a
        share of ``m``; the third (Shamir-only) server gets share 0, which
        it never uses.
        """
        m_share = self._m_shares[server_index] if server_index < 2 else 0
        return ServerParams(
            num_owners=self.num_owners,
            delta=self.delta,
            group=ServerGroupView(
                delta=self.delta,
                eta_prime=self.group.eta_prime,
                g=self.group.g,
                power_table=self.group.power_table,
            ),
            field_prime=self.field_prime,
            pf=self.pf,
            pf_owners=self.pf_owners,
            pf_s1=self._quadruple["pf_s1"],
            pf_s2=self._quadruple["pf_s2"],
            prg_seed=self.prg_seed,
            extrema_modulus=self.extrema_modulus,
            m_share=m_share,
        )

    def announcer_params(self, include_eta: bool = False) -> AnnouncerParams:
        """The knowledge view dealt to the announcer.

        ``include_eta`` opts into announcer-driven bucket traversal
        (§6.6's note); see :class:`AnnouncerParams` for the leakage
        trade-off.
        """
        return AnnouncerParams(
            extrema_modulus=self.extrema_modulus,
            eta=self.group.eta if include_eta else None,
        )
