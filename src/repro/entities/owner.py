"""The DB owner (§3.2 entity 1).

Owners prepare and outsource their data (Phase 1), optionally issue
queries (Phase 2), and finalise results from the servers' share outputs
(Phase 4).  This module implements every owner-side computation:

* χ-table construction: the 0/1 domain-indicator vector over ``Dom(A_c)``
  (§5.1 Step 1), its complement table for verification (§5.2), and the
  per-cell aggregation vectors of Table 11 (sum, count per group).
* Share creation: additive shares of χ to servers 0/1, Shamir shares of
  aggregation columns to servers 0/1/2.
* Result finalisation: Eq. 4 (PSI), Eq. 8–10 (verification), Eq. 19 (PSU),
  Lagrange interpolation of the degree-2 aggregation outputs, and the
  §6.3 extrema steps (blinding, F-inversion, the α round).
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.params import OwnerParams
from repro.crypto.additive import AdditiveSharing, share_bigint
from repro.crypto.prg import SeededPRG, derive_seed
from repro.crypto.shamir import ShamirSharing
from repro.crypto.widths import share_dtype
from repro.data.relation import Relation
from repro.data.storage import ShareKind
from repro.exceptions import ProtocolError, QueryError, VerificationError
from repro.network.message import Endpoint, Role


def numpy_mul_mod_span(a: np.ndarray, b: np.ndarray, modulus: int,
                       out: np.ndarray):
    """Eq. 4/8–10: ``out[i] = a[i] · b[i] mod m``.

    The owner's one product of two server streams: PSI finalisation
    (Eq. 4, ``fop``) and the verification proofs (Eq. 8–10, §6.5).
    Server streams arrive as narrow unsigned values (uint16 group
    elements by default); the product is formed at twice the wider
    factor's width — a uint16·uint16 product fits uint32 — so it never
    overflows.  numpy twin of :func:`repro.kernels.mul_mod_span`.
    """
    wide = _doubled(a, b)

    def kernel(lo: int, hi: int) -> None:
        product = np.multiply(a[lo:hi], b[lo:hi], dtype=wide)
        np.remainder(product, modulus, out=product)
        out[lo:hi] = product
    return kernel


def _mul_mod(a, b, modulus: int) -> np.ndarray:
    """``(a mod m) * (b mod m) mod m`` pointwise, at the width of ``m``:
    the compiled span where the kernel tier engages, else
    :func:`numpy_mul_mod_span`."""
    a, b = _unsigned(a, modulus), _unsigned(b, modulus)
    if a.shape != b.shape:
        raise ProtocolError(f"streams of shapes {a.shape} and {b.shape} "
                            f"do not line up cell by cell")
    out = np.empty(a.size, dtype=share_dtype(modulus))
    kernel = (kernels.mul_mod_span(a, b, modulus, out)
              or numpy_mul_mod_span(a, b, modulus, out))
    kernel(0, out.size)
    return out


def _unsigned(a, modulus: int) -> np.ndarray:
    """``a`` as unsigned values of at most 32 bits: narrow streams pass
    through, anything else is reduced to residues first."""
    a = np.asarray(a)
    if a.dtype.kind == "u" and a.itemsize <= 4:
        return a
    return np.mod(a, modulus).astype(share_dtype(modulus))


def _doubled(a: np.ndarray, b: np.ndarray) -> np.dtype:
    """The unsigned dtype twice as wide as the wider of two operands."""
    return np.dtype(f"u{2 * max(a.itemsize, b.itemsize)}")


class DBOwner:
    """One database owner with a local relation and a parameter view.

    Args:
        owner_id: 0-based owner index.
        params: the knowledge view dealt by the initiator.
        relation: the owner's private relation.
        seed: owner-local randomness seed (share randomness).
    """

    def __init__(self, owner_id: int, params: OwnerParams,
                 relation: Relation | None = None, seed: int = 0):
        self.owner_id = owner_id
        self.params = params
        self.relation = relation
        self.endpoint = Endpoint(Role.OWNER, owner_id)
        self._rng = np.random.default_rng(
            derive_seed(seed, f"owner-{owner_id}")
        )
        self._prg = SeededPRG(derive_seed(seed, f"owner-prg-{owner_id}"))
        self._additive = AdditiveSharing(params.delta, num_shares=2, rng=self._rng)
        self._shamir = ShamirSharing(params.field_prime, num_shares=3,
                                     degree=1, rng=self._rng)

    # -- χ-table construction (Phase 1 preparation) ---------------------------

    def _relation(self) -> Relation:
        if self.relation is None:
            raise ProtocolError(f"owner {self.owner_id} holds no relation")
        return self.relation

    def _attribute_values(self, attributes: str | tuple):
        """Distinct values (or value tuples) of the PSI attribute(s)."""
        relation = self._relation()
        if isinstance(attributes, str):
            return relation.distinct(attributes)
        columns = [relation.column(a) for a in attributes]
        return list(dict.fromkeys(zip(*columns)))

    def _row_cells(self, attributes: str | tuple) -> np.ndarray:
        """The domain cell of every row's PSI attribute value(s)."""
        relation = self._relation()
        if isinstance(attributes, str):
            rows = relation.column(attributes)
        else:
            rows = list(zip(*(relation.column(a) for a in attributes)))
        return self.params.domain.cells_of(rows)

    def build_indicator(self, attributes: str | tuple,
                        mask_zeros: bool = False) -> np.ndarray:
        """The χ table: 1 at the cell of every present value, else 0.

        Args:
            attributes: PSI attribute (or tuple for product domains).
            mask_zeros: the paper's footnote-1 hardening — absent cells
                hold a random value (never 0 or 1) instead of 0, so an
                owner's table never encodes its value *distribution* even
                if shares leak.  Masks are drawn from
                ``[2, (delta-1)//m + 1)``, which keeps every mixed cell
                sum strictly inside ``(m, delta)``: PSI stays *exactly*
                correct (a cell sums to ``m`` iff all owners put a 1
                there, with no modular wrap-around and no false
                positives).  Incompatible with the complement-based
                verification (which needs exact 0/1 tables).
        """
        return self._indicator(self._row_cells(attributes), mask_zeros)

    def _indicator(self, cells: np.ndarray, mask_zeros: bool) -> np.ndarray:
        size = self.params.domain.size
        if mask_zeros:
            # Upper bound chosen so k ones + (m-k) masks can only reach m
            # when k == m: masks >= 2 force the sum past m otherwise, and
            # the bound keeps the total below delta (no wrap).
            hi = (self.params.delta - 1) // self.params.num_owners + 1
            span = max(1, hi - 2)
            chi = 2 + self._rng.integers(0, span, size=size, dtype=np.int64)
        else:
            chi = np.zeros(size, dtype=np.int64)
        chi[cells] = 1
        # Every entry is below δ: hold the table at the additive width.
        return chi.astype(share_dtype(self.params.delta))

    def build_complement(self, chi: np.ndarray) -> np.ndarray:
        """The χ̄ table, permuted with ``PF_db1`` (§5.2 Step 1)."""
        return self.params.pf_db1.apply(1 - chi)

    def build_group_sums(self, psi_attribute: str, agg_attribute: str) -> np.ndarray:
        """Per-cell sums of ``agg_attribute`` grouped by ``psi_attribute``.

        This is the ``x_i2`` vector of §6.1 / the PK..DT columns of
        Table 11 (``select A_c, sum(A_x) group by A_c`` scattered over
        domain cells, zero where the owner has no tuple).

        Raises:
            QueryError: if a value is not a non-negative integer, or a
                cell's total reaches the Shamir field prime — shares over
                ``F_p`` would carry a truncated or wrapped total.
        """
        return self._group_sums(self._row_cells(psi_attribute),
                                psi_attribute, agg_attribute)

    def _group_sums(self, cells: np.ndarray, psi_attribute: str,
                    agg_attribute: str) -> np.ndarray:
        relation = self._relation()
        column = relation.column(agg_attribute)
        prime = self.params.field_prime
        try:
            values = np.asarray(column)
        except ValueError:  # ragged nested values
            values = np.asarray(column, dtype=object)
        if column and not (values.ndim == 1 and values.dtype.kind in "biu"
                           and values.min() >= 0 and values.max() < prime):
            bad = next(v for v in column
                       if not (isinstance(v, (int, np.integer))
                               and 0 <= v < prime))
            raise QueryError(
                f"owner {self.owner_id}: aggregation column "
                f"{agg_attribute!r} holds {bad!r}; Shamir shares carry "
                f"only non-negative integers below the field prime {prime}"
            )
        # Every value is below the prime (< 2**32), so no int64 cell sum
        # can overflow before 2**31 rows.
        sums = np.zeros(self.params.domain.size, dtype=np.int64)
        np.add.at(sums, cells, values.astype(np.int64))
        if sums.size and sums.max() >= prime:
            row = int(np.flatnonzero(sums[cells] >= prime)[0])
            raise QueryError(
                f"owner {self.owner_id}: aggregation column "
                f"{agg_attribute!r} sums to {int(sums[cells[row]])} at "
                f"{psi_attribute} = {relation.column(psi_attribute)[row]!r}, "
                f"reaching the field prime {prime}"
            )
        return sums.astype(share_dtype(prime))

    def build_group_counts(self, psi_attribute: str) -> np.ndarray:
        """Per-cell tuple counts (the ``aOK`` column, used by average)."""
        return self._group_counts(self._row_cells(psi_attribute))

    def _group_counts(self, cells: np.ndarray) -> np.ndarray:
        return np.bincount(cells, minlength=self.params.domain.size)

    # -- share creation --------------------------------------------------------

    def additive_shares_of(self, vector: np.ndarray) -> list[np.ndarray]:
        """Two additive shares of a χ-style vector."""
        return self._additive.share_vector(vector)

    def shamir_shares_of(self, vector: np.ndarray) -> list[np.ndarray]:
        """Three degree-1 Shamir shares of an aggregation vector."""
        return self._shamir.share_vector(vector)

    def outsource(self, servers, psi_attribute: str | tuple,
                  agg_attributes: tuple = (), with_verification: bool = False,
                  column_prefix: str = "", transport=None,
                  mask_zeros: bool = False) -> None:
        """Phase 1: build Table-11-style columns and ship shares to servers.

        Stored columns mirror Table 11: the χ indicator under the attribute
        name (``OK``), its complement under ``vOK``, aggregation columns
        under their names (``PK``...), permuted verification copies under
        ``vPK``..., the count column under ``aOK``, and — for verifiable
        count queries — ``PF_db1``-permuted χ under ``cOK`` with the
        ``PF_db2``-permuted complement under ``cvOK``.

        Args:
            servers: the (2 or 3) :class:`PrismServer` objects.
            psi_attribute: attribute (or attribute tuple) for PSI/PSU.
            agg_attributes: attributes to prepare for aggregation queries.
            with_verification: also outsource the verification columns.
            column_prefix: optional namespace for stored column names.
            transport: optional :class:`LocalTransport` for traffic
                accounting of the outsourcing phase.
        """

        if agg_attributes and not isinstance(psi_attribute, str):
            raise ProtocolError(
                "aggregation requires a single PSI attribute, not a tuple"
            )
        if mask_zeros and with_verification:
            raise ProtocolError(
                "mask_zeros stores random values in absent cells, which "
                "the complement-based verification cannot pair; choose one"
            )

        def ship(server, column, values, kind):
            if transport is not None:
                transport.transfer(self.endpoint, server.endpoint,
                                   f"outsource:{column}", values)
            server.receive_shares(self.owner_id, column, values, kind)

        # Every column is built before any share ships, so a column that
        # Shamir cannot carry fails the owner's outsourcing up front.
        cells = self._row_cells(psi_attribute)
        chi = self._indicator(cells, mask_zeros)
        group_sums = {agg: self._group_sums(cells, psi_attribute, agg)
                      for agg in agg_attributes}
        key = self._column_name(psi_attribute, column_prefix)
        for server, share in zip(servers[:2], self.additive_shares_of(chi)):
            ship(server, key, share, ShareKind.ADDITIVE)
        if with_verification:
            complement = self.build_complement(chi)
            for server, share in zip(servers[:2],
                                     self.additive_shares_of(complement)):
                ship(server, "v" + key, share, ShareKind.ADDITIVE)
            # Count-verification streams (Eq. 1 pairing): χ permuted by
            # PF_db1 and χ̄ permuted by PF_db2.
            chi_c = self.params.pf_db1.apply(chi)
            for server, share in zip(servers[:2], self.additive_shares_of(chi_c)):
                ship(server, "c" + key, share, ShareKind.ADDITIVE)
            comp_c = self.params.pf_db2.apply(1 - chi)
            for server, share in zip(servers[:2], self.additive_shares_of(comp_c)):
                ship(server, "cv" + key, share, ShareKind.ADDITIVE)
        for agg, sums in group_sums.items():
            for server, share in zip(servers[:3], self.shamir_shares_of(sums)):
                ship(server, column_prefix + agg, share, ShareKind.SHAMIR)
            if with_verification:
                permuted = self.params.pf_db1.apply(sums)
                for server, share in zip(servers[:3],
                                         self.shamir_shares_of(permuted)):
                    ship(server, "v" + column_prefix + agg, share,
                         ShareKind.SHAMIR)
        if agg_attributes:
            counts = self._group_counts(cells)
            for server, share in zip(servers[:3], self.shamir_shares_of(counts)):
                ship(server, "a" + key, share, ShareKind.SHAMIR)

    @staticmethod
    def _column_name(psi_attribute: str | tuple, prefix: str = "") -> str:
        if isinstance(psi_attribute, str):
            return prefix + psi_attribute
        return prefix + "*".join(psi_attribute)

    # -- Phase 4: finalisation ---------------------------------------------------

    def finalize_psi(self, output_s1: np.ndarray,
                     output_s2: np.ndarray) -> np.ndarray:
        """PSI finalisation (Eq. 4): pointwise product mod η; 1 marks a
        common value.

        Returns the raw ``fop`` vector (callers decide whether to decode
        positions — PSI-Count deliberately cannot).
        """
        return _mul_mod(output_s1, output_s2, self.params.eta)

    def psi_membership(self, fop: np.ndarray) -> np.ndarray:
        """Boolean intersection-membership vector from ``fop``."""
        return fop == 1

    def decode_cells(self, member: np.ndarray,
                     attributes: str | tuple | None = None) -> list:
        """Map a membership vector back to domain values.

        Enumerated/product domains decode directly.  Hashed domains are
        not invertible, so the owner decodes against its *own* values of
        the queried attribute (sound for PSI, whose result is a subset of
        every owner's set; for PSU only the cells held by this owner can
        be named — others stay opaque, which matches what a hashed-domain
        deployment can reveal).

        Args:
            member: boolean membership vector over domain cells.
            attributes: the queried attribute(s); required for hashed
                domains, ignored otherwise.
        """
        domain = self.params.domain
        if getattr(domain, "invertible", True):
            return domain.values_at(np.flatnonzero(member))
        if attributes is None:
            raise ProtocolError(
                "decoding a hashed-domain result needs the queried "
                "attribute to derive the candidate values"
            )
        values = self._attribute_values(attributes)
        held = member[domain.cells_of(values)].tolist()
        return [v for v, keep in zip(values, held) if keep]

    def finalize_psu(self, output_s1: np.ndarray,
                     output_s2: np.ndarray) -> np.ndarray:
        """Eq. 19: modular addition; nonzero marks a union member.

        The sum is formed at twice the operands' width: two uint8
        residues overflow uint8 once δ > 128.
        """
        delta = self.params.delta
        a, b = _unsigned(output_s1, delta), _unsigned(output_s2, delta)
        total = np.add(a, b, dtype=_doubled(a, b))
        return np.remainder(total, delta, out=total) != 0

    def verify_psi(self, fop: np.ndarray, vout_s1: np.ndarray,
                   vout_s2: np.ndarray) -> None:
        """PSI verification (Eq. 8–10): check ``r1 * r2 mod η == 1`` for
        every cell.

        ``vout`` arrives permuted (owners applied ``PF_db1`` to χ̄ before
        sharing); we invert the permutation so cell ``i`` of the proof
        lines up with cell ``i`` of ``fop``.

        Raises:
            VerificationError: listing the failing cells, if any.
        """
        eta = self.params.eta
        r2 = self.params.pf_db1.invert(_mul_mod(vout_s1, vout_s2, eta))
        proof = _mul_mod(fop, r2, eta)
        bad = np.nonzero(proof != 1)[0]
        if bad.size:
            raise VerificationError(
                f"PSI verification failed at {bad.size} of {proof.size} cells",
                failed_cells=bad.tolist(),
            )

    def verify_count(self, fop: np.ndarray, vout_s1: np.ndarray,
                     vout_s2: np.ndarray) -> None:
        """§6.5: check ``fop * vout_s1 * vout_s2 mod η == 1`` for every cell.

        The Eq. 1 pairing already lines the proof stream up with ``fop``,
        so no permutation is inverted here.

        Raises:
            VerificationError: listing the failing cells, if any.
        """
        eta = self.params.eta
        proof = _mul_mod(fop, _mul_mod(vout_s1, vout_s2, eta), eta)
        bad = np.flatnonzero(proof != 1)
        if bad.size:
            raise VerificationError(
                f"count verification failed at {bad.size} cells",
                failed_cells=bad.tolist(),
            )

    def make_z_shares(self, member: np.ndarray) -> list[np.ndarray]:
        """§6.1 Step 3: Shamir-share the 0/1 indicator of common items."""
        return self._shamir.share_vector(member)

    def finalize_aggregate(self, outputs: list[np.ndarray]) -> np.ndarray:
        """§6.1 Step 5: degree-2 Lagrange interpolation of the three sums."""
        if len(outputs) < 3:
            raise ProtocolError(
                f"degree-2 reconstruction needs 3 server outputs, got "
                f"{len(outputs)}"
            )
        return self._shamir.reconstruct_vector(outputs[:3], degree=2)

    def aggregate_per_value(self, member: np.ndarray, totals: np.ndarray,
                            counts: np.ndarray | None = None) -> dict:
        """Result assembly: ``{value: total}`` over the member cells.

        With ``counts`` (average), each entry is ``total / count``, or
        ``0.0`` where the count is 0.
        """
        cells = np.flatnonzero(member)
        values = self.params.domain.values_at(cells)
        sums = totals[cells].tolist()
        if counts is None:
            return dict(zip(values, sums))
        return {v: t / c if c else 0.0
                for v, t, c in zip(values, sums, counts[cells].tolist())}

    # -- extrema steps (§6.3) -----------------------------------------------------

    def local_group_max(self, psi_attribute: str, agg_attribute: str, value):
        """M_i: this owner's max of ``agg_attribute`` where A_c == value."""
        maxima = self._relation().group_by_max(psi_attribute, agg_attribute)
        return maxima.get(value)

    def local_group_min(self, psi_attribute: str, agg_attribute: str, value):
        """This owner's min of ``agg_attribute`` where A_c == value."""
        minima = self._relation().group_by_min(psi_attribute, agg_attribute)
        return minima.get(value)

    def local_group_sum(self, psi_attribute: str, agg_attribute: str, value):
        """This owner's sum of ``agg_attribute`` where A_c == value."""
        sums = self._relation().group_by_sum(psi_attribute, agg_attribute)
        return sums.get(value)

    def blind_value(self, value: int) -> int:
        """Eq. 12: ``v = F(M) + r`` with ``r`` inside the safe blinding bound.

        Raises:
            ProtocolError: if the blinded value could reach the extrema
                modulus (the value exceeds the initiator's declared
                ``value_bound``) — wrapping would silently break the
                announcer's ordering.
        """
        poly = self.params.polynomial
        if poly.max_blinded_value(value) > self.params.extrema_modulus:
            raise ProtocolError(
                f"aggregation value {value} exceeds the declared bound; "
                f"re-deal parameters with a larger value_bound"
            )
        bound = max(1, poly.blinding_bound(value))
        r = self._prg.integer(0, bound)
        return poly(value) + r

    def extrema_shares(self, blinded: int) -> list[int]:
        """Two additive shares of a blinded value over the extrema modulus."""
        return share_bigint(blinded, self.params.extrema_modulus, 2, self._prg)

    def recover_extremum(self, share_s1: int, share_s2: int) -> int:
        """Step 5a: reconstruct the announced blinded extremum and invert F."""
        blinded = (share_s1 + share_s2) % self.params.extrema_modulus
        return self.params.polynomial.invert_blinded(blinded)

    def recover_owner_identity(self, share_s1: int, share_s2: int) -> int:
        """Step 5a: reconstruct the permuted index and apply ``RPF``."""
        index = (share_s1 + share_s2) % self.params.extrema_modulus
        return self.params.pf_owners.invert_index(int(index))

    def holds_extremum(self, local_value: int | None, extremum: int) -> bool:
        """Step 5b: does this owner's own value match the extremum?"""
        return local_value is not None and int(local_value) == int(extremum)

    def alpha_shares(self, holds: bool) -> list[int]:
        """Step 5b: additive shares of the 0/1 'I hold it' flag."""
        return share_bigint(int(holds), self.params.extrema_modulus, 2, self._prg)

    def finalize_fpos(self, fpos_s1: list[int], fpos_s2: list[int]) -> list[int]:
        """Step 7: reconstruct which owners hold the extremum."""
        q = self.params.extrema_modulus
        return [(a + b) % q for a, b in zip(fpos_s1, fpos_s2)]
