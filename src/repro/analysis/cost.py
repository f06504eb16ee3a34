"""Analytical cost model for Prism queries (the O(m·X) column of Table 13).

Predicts, from the deployment parameters alone, the exact query-time
communication volume and the dominant server-side operation counts for
each operator.  The byte predictions are *exact* for the set-membership
operators (tests assert equality against the transport's measurements);
the operation counts are the asymptotic terms the paper reports.

Every stream travels at the width of its modulus, taken from the same
width function the deployment uses (:func:`repro.crypto.widths.share_dtype`):
χ shares and PSU outputs mod δ, PSI/verification/count outputs mod η',
aggregation shares, z shares and outputs mod the field prime.
"""

from __future__ import annotations

import dataclasses

from repro.crypto.groups import DEFAULT_ALPHA
from repro.crypto.shamir import DEFAULT_FIELD_PRIME
from repro.crypto.widths import share_dtype
from repro.entities.initiator import group_moduli
from repro.exceptions import QueryError

#: Bytes the traffic accounting charges for one big-int extrema share
#: (a Python int counts at least 8 bytes).
BIGINT_BYTES = 8


@dataclasses.dataclass(frozen=True)
class CostEstimate:
    """Predicted per-query costs.

    Attributes:
        server_to_owner_bytes: query-time result traffic.
        owner_to_server_bytes: query-time request traffic (z shares etc.).
        server_ops: dominant per-server operation count (adds + lookups).
        rounds: owner↔server communication rounds.
    """

    server_to_owner_bytes: int
    owner_to_server_bytes: int
    server_ops: int
    rounds: int

    @property
    def total_bytes(self) -> int:
        return self.server_to_owner_bytes + self.owner_to_server_bytes


class CostModel:
    """Cost formulas for a deployment of ``m`` owners over ``b`` cells.

    Args:
        num_owners: ``m``.
        domain_size: ``b`` (χ-table length).
        delta: the deployment's additive-group prime (``None``: the
            Initiator's default).  The moduli follow from it as the
            Initiator derives them
            (:func:`~repro.entities.initiator.group_moduli`, the default
            ``alpha`` and field prime) and set each stream's width.
    """

    def __init__(self, num_owners: int, domain_size: int,
                 delta: int | None = None):
        if num_owners < 2 or domain_size < 1:
            raise QueryError("need m >= 2 owners and a non-empty domain")
        self.m = num_owners
        self.b = domain_size
        delta, eta = group_moduli(num_owners, delta)
        #: Bytes per element of each stream family.
        self.additive_bytes = share_dtype(delta).itemsize
        self.group_bytes = share_dtype(DEFAULT_ALPHA * eta).itemsize
        self.shamir_bytes = share_dtype(DEFAULT_FIELD_PRIME).itemsize

    def _broadcast(self, width: int) -> int:
        """Bytes of one stream that 2 servers broadcast to m owners."""
        return 2 * self.m * self.b * width

    # -- query-time costs ---------------------------------------------------

    def psi(self, verify: bool = False) -> CostEstimate:
        """PSI (§5.1): 2 servers broadcast b group elements to m owners;
        the verification stream doubles the result traffic."""
        streams = 2 if verify else 1
        return CostEstimate(
            server_to_owner_bytes=streams * self._broadcast(self.group_bytes),
            owner_to_server_bytes=0,
            server_ops=streams * self.m * self.b,
            rounds=1,
        )

    def psu(self, verify: bool = False) -> CostEstimate:
        """PSU (§7): PSI's traffic shape, but the masked sums are
        residues mod δ; the verification stream is a group-element
        (Eq. 7) stream."""
        return dataclasses.replace(
            self.psi(verify),
            server_to_owner_bytes=(
                self._broadcast(self.additive_bytes)
                + (self._broadcast(self.group_bytes) if verify else 0)))

    def count(self, verify: bool = False) -> CostEstimate:
        """PSI-Count (§6.5): PSI plus a server-side permutation."""
        base = self.psi(verify)
        return dataclasses.replace(base, server_ops=base.server_ops + self.b)

    def aggregate(self, num_attributes: int = 1, average: bool = False,
                  verify: bool = False) -> CostEstimate:
        """PSI/PSU sum or average (§6.1–6.2), over k attributes.

        Round 1 is a PSI; round 2 ships 3 z-share vectors up and one
        result vector per (server, attribute[, count column][, verified
        copy]) down.
        """
        if num_attributes < 1:
            raise QueryError("need at least one aggregation attribute")
        psi = self.psi()
        columns = num_attributes * (2 if verify else 1) + (1 if average else 0)
        z_vectors = 2 if verify else 1
        return CostEstimate(
            server_to_owner_bytes=(psi.server_to_owner_bytes
                                   + 3 * columns * self.m * self.b
                                   * self.shamir_bytes),
            owner_to_server_bytes=3 * z_vectors * self.b * self.shamir_bytes,
            server_ops=psi.server_ops + 3 * columns * self.m * self.b,
            rounds=2,
        )

    def extrema(self, num_common: int = 1, reveal_holders: bool = True
                ) -> CostEstimate:
        """PSI max/min (§6.3): PSI plus per-common-value announcer rounds.

        Blinded values are big ints of data-dependent width, so the
        extrema bytes are an *estimate* (each counted as
        :data:`BIGINT_BYTES`).
        """
        psi = self.psi()
        word = BIGINT_BYTES
        per_value_up = 2 * self.m * word          # owner shares to servers
        per_value_down = 2 * self.m * word * 2    # value+index via servers
        if reveal_holders:
            per_value_up += 2 * self.m * word     # alpha shares
            per_value_down += 2 * self.m * self.m * word  # fpos vectors
        return CostEstimate(
            server_to_owner_bytes=(psi.server_to_owner_bytes
                                   + num_common * per_value_down),
            owner_to_server_bytes=num_common * per_value_up,
            server_ops=psi.server_ops + num_common * self.m,
            rounds=1 + (2 if reveal_holders else 1) * num_common,
        )

    def outsourcing(self, num_agg_attributes: int = 0,
                    with_verification: bool = False) -> int:
        """One-time Phase-1 upload bytes across all owners.

        χ to 2 servers; with verification also χ̄, the two count-stream
        tables, and permuted copies of every aggregation column; every
        aggregation column and the count column go to 3 servers.
        """
        additive_tables = 1 + (3 if with_verification else 0)
        per_owner = additive_tables * 2 * self.b * self.additive_bytes
        if num_agg_attributes:
            shamir_columns = num_agg_attributes * (2 if with_verification
                                                   else 1) + 1
            per_owner += shamir_columns * 3 * self.b * self.shamir_bytes
        return self.m * per_owner

    def complexity_class(self) -> str:
        """The Table 13 asymptotic: O(m · X) with X the domain size."""
        return f"O(m*X) = O({self.m} * {self.b})"
