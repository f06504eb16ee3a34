"""The Prism server (§3.2 entity 2).

A server stores secret shares and runs the per-query kernels.  It never
sees cleartext, never addresses another server, and executes identical
instruction sequences regardless of the data (access-pattern hiding): all
kernels are branch-free sweeps over the full χ length ``b``.

Kernels implemented here:

* :meth:`psi_round` — Eq. 3: ``g^((Σ_j A(x_i)_j ⊖ A(m)) mod δ) mod η'``.
* :meth:`verification_round` — Eq. 7 over the complement table.
* :meth:`psu_round` — Eq. 18: masked additive sums with common PRG.
* :meth:`count_round` — PSI output permuted with ``PF_s1`` (§6.5).
* :meth:`aggregate_round` — Eq. 11: Σ_j Shamir(x2)·Shamir(z) per cell.
* :meth:`extrema_collect` / :meth:`fpos_round` — the §6.3 max machinery.

The heavy kernels accept a ``num_threads`` argument and chunk the χ table
across the deployment's *persistent* thread pool
(:class:`~repro.core.sharding.ShardRuntime`), which is what Exp 1
(Fig. 3) sweeps.  The batched 2-D kernels additionally accept a
:class:`~repro.core.sharding.ShardPlan` naming how many contiguous χ
shards the sweep splits into.  Every chunk is a ``kernel(lo, hi)``
closure — compiled (:mod:`repro.kernels`, GIL released per C call) where
the tier is active, numpy otherwise — so sharded sweeps run in-process
and bit-identically for every shard count; when a subclass overrides the
1-D kernels the batched kernels fall back to them per row (so malicious /
instrumented servers keep misbehaving per shard).
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.params import ServerParams
from repro.core.sharding import ShardRuntime
from repro.crypto.prg import SeededPRG
from repro.data.storage import ServerStore, ShareKind
from repro.exceptions import ProtocolError
from repro.network.message import Endpoint, Role


class PrismServer:
    """An honest Prism server.

    Args:
        index: server id (0 and 1 hold additive shares; 2 joins for Shamir).
        params: the knowledge view dealt by the initiator.
    """

    def __init__(self, index: int, params: ServerParams):
        self.index = index
        self.params = params
        self.store = ServerStore()
        self.endpoint = Endpoint(Role.SERVER, index)
        #: Default :class:`~repro.core.sharding.ShardPlan` for the batched
        #: kernels (set by ``attach_sharding``; ``None`` = unsharded).
        self.shard_plan = None
        #: The thread pool every chunked sweep runs on (``attach_sharding``
        #: replaces it with the deployment's shared runtime).
        self.runtime = ShardRuntime()

    # -- execution machinery --------------------------------------------------

    def close(self) -> None:
        """Quiesce and join the sweep thread pool (idempotent).

        The server stays usable afterwards (a later sweep builds a fresh
        pool).
        """
        self.runtime.close()

    def _sweep_chunks(self, num_threads: int, shard_plan) -> int:
        """Span count of a batched sweep: the thread count or the shard
        count of ``shard_plan`` (default: the server's own plan),
        whichever is larger."""
        plan = shard_plan if shard_plan is not None else self.shard_plan
        return max(num_threads, plan.num_shards if plan is not None else 1)

    # -- storage ------------------------------------------------------------

    def receive_shares(self, owner_id: int, column: str, values: np.ndarray,
                       kind: ShareKind) -> None:
        """Accept an outsourced share vector from an owner (Phase 1)."""
        self.store.put(owner_id, column, values, kind)

    def owners_with(self, column: str) -> list[int]:
        """Owner ids that have outsourced ``column``.

        Part of the deployment-facing surface (mirrored by
        :class:`~repro.entities.remote.RemoteServer`), so orchestration
        code never reaches into :attr:`store` directly — a remote
        server's store lives in another process.
        """
        return self.store.owners_with(column)

    def fetch_additive(self, column: str,
                       owner_ids: list[int] | None = None) -> list[np.ndarray]:
        """Data-fetch step: all owners' additive shares of a column."""
        return self.store.fetch_column(column, ShareKind.ADDITIVE, owner_ids)

    def fetch_shamir(self, column: str,
                     owner_ids: list[int] | None = None) -> list[np.ndarray]:
        """Data-fetch step: all owners' Shamir shares of a column."""
        return self.store.fetch_column(column, ShareKind.SHAMIR, owner_ids)

    # -- additive-share kernels ----------------------------------------------

    def _sum_shares(self, shares: list[np.ndarray], num_threads: int) -> np.ndarray:
        """Σ_j shares_j mod δ, chunk-threaded over the χ length."""
        delta = self.params.delta
        n = shares[0].shape[0]
        acc = np.zeros(n, dtype=np.int64)

        def kernel(lo: int, hi: int) -> None:
            local = acc[lo:hi]
            for s in shares:
                local += s[lo:hi]
            np.mod(local, delta, out=local)

        # Sum of m shares each < delta stays far below int64 overflow for
        # every supported (m, delta), so one final mod per chunk suffices.
        self.runtime.run(kernel, n, num_threads)
        return acc

    def psi_round(self, column: str, num_threads: int = 1,
                  owner_ids: list[int] | None = None,
                  shares: list[np.ndarray] | None = None) -> np.ndarray:
        """Eq. 3: the oblivious PSI kernel over all owners' χ shares.

        ``shares`` may be pre-fetched (via :meth:`fetch_additive`) so the
        caller can time the data-fetch step separately, as Exp 1 does.
        """
        if shares is None:
            shares = self.fetch_additive(column, owner_ids)
        num_owners = len(shares)
        exponents = self._sum_shares(shares, num_threads)
        # ⊖ A(m): subtract this server's additive share of the owner count.
        # When the query spans a subset of owners, m is that subset's size;
        # shares of it are deal with the same split ratio.
        m_share = self.params.m_share
        if owner_ids is not None and num_owners != self.params.num_owners:
            m_share = self._subset_m_share(num_owners)
        exponents = np.mod(exponents - m_share, self.params.delta)
        return self._pow_chunked(exponents, num_threads)

    def _subset_m_share(self, subset_size: int) -> int:
        """Additive share of a subset owner count, derived like A(m).

        Both servers derive their share from the common PRG seed so the
        shares still sum to ``subset_size`` without any coordination.
        """
        prg = SeededPRG(self.params.prg_seed, f"m-share-{subset_size}")
        first = prg.integer(0, self.params.delta)
        if self.index == 0:
            return first
        return (subset_size - first) % self.params.delta

    def _pow_chunked(self, exponents: np.ndarray, num_threads: int) -> np.ndarray:
        table = self.params.group.power_table
        delta = self.params.delta
        out = np.empty_like(exponents)

        def kernel(lo: int, hi: int) -> None:
            out[lo:hi] = table[np.mod(exponents[lo:hi], delta)]

        self.runtime.run(kernel, exponents.shape[0], num_threads)
        return out

    def verification_round(self, column: str, num_threads: int = 1,
                           owner_ids: list[int] | None = None,
                           shares: list[np.ndarray] | None = None) -> np.ndarray:
        """Eq. 7: ``g^(Σ_j A(x̄_i)_j) mod η'`` over the complement table.

        Identical sweep shape as :meth:`psi_round` (no ⊖ A(m) term), so a
        server cannot distinguish verification traffic from PSI traffic.
        """
        if shares is None:
            shares = self.fetch_additive(column, owner_ids)
        exponents = self._sum_shares(shares, num_threads)
        return self._pow_chunked(exponents, num_threads)

    def psu_round(self, column: str, query_nonce: int, num_threads: int = 1,
                  owner_ids: list[int] | None = None,
                  shares: list[np.ndarray] | None = None) -> np.ndarray:
        """Eq. 18: the PSU kernel.

        Both servers derive the same mask vector ``rand[i] ∈ [1, δ)`` from
        the common PRG seed and the query nonce, multiply the summed shares
        by it and reduce modulo δ.  Owners adding the two outputs get
        ``(Σ_j x_ij) * rand[i] mod δ`` — zero iff no owner holds the value.
        """
        if shares is None:
            shares = self.fetch_additive(column, owner_ids)
        summed = self._sum_shares(shares, num_threads)
        prg = SeededPRG(self.params.prg_seed, f"psu-{query_nonce}")
        rand = prg.integers(summed.shape[0], 1, self.params.delta)
        out = np.empty_like(summed)

        def kernel(lo: int, hi: int) -> None:
            out[lo:hi] = np.mod(summed[lo:hi] * rand[lo:hi], self.params.delta)

        self.runtime.run(kernel, summed.shape[0], num_threads)
        return out

    def count_round(self, column: str, num_threads: int = 1,
                    owner_ids: list[int] | None = None,
                    shares: list[np.ndarray] | None = None,
                    use_pf_s2: bool = False) -> np.ndarray:
        """§6.5: PSI output permuted server-side before leaving the server.

        Owners can still count the ones (the cardinality) but can no longer
        map positions back to domain values, because ``PF_s1`` is unknown
        to them.  Count *verification* pairs a ``PF_s1``-permuted data
        stream (over χ pre-permuted with ``PF_db1``) with a
        ``PF_s2``-permuted complement stream (over χ̄ pre-permuted with
        ``PF_db2``): by Eq. (1) both arrive permuted by the same unknown
        ``PF_i``, so the owner can pair cells without learning positions.
        """
        out = self.psi_round(column, num_threads, owner_ids, shares)
        pf = self.params.pf_s2 if use_pf_s2 else self.params.pf_s1
        return pf.apply(out)

    def count_verification_round(self, column: str, num_threads: int = 1,
                                 owner_ids: list[int] | None = None,
                                 shares: list[np.ndarray] | None = None
                                 ) -> np.ndarray:
        """Complement stream for count verification, permuted by ``PF_s2``."""
        out = self.verification_round(column, num_threads, owner_ids, shares)
        return self.params.pf_s2.apply(out)

    # -- Shamir kernels (aggregation round 2) ---------------------------------

    def aggregate_round(self, column: str, z_share: np.ndarray,
                        num_threads: int = 1,
                        owner_ids: list[int] | None = None,
                        shares: list[np.ndarray] | None = None) -> np.ndarray:
        """Eq. 11: ``Σ_j S(x_i2)_j × S(z_i)`` per cell, mod the field prime.

        ``z_share`` is this server's Shamir share of the querier's 0/1
        intersection-indicator vector.  The product of two degree-1 shares
        is a degree-2 share; owners reconstruct with all three servers.
        """
        if shares is None:
            shares = self.fetch_shamir(column, owner_ids)
        p = self.params.field_prime
        n = z_share.shape[0]
        if shares[0].shape[0] != n:
            raise ProtocolError(
                f"z vector length {n} does not match column length "
                f"{shares[0].shape[0]}"
            )
        acc = np.zeros(n, dtype=np.int64)

        def kernel(lo: int, hi: int) -> None:
            z = z_share[lo:hi]
            local = acc[lo:hi]
            for s in shares:
                # p < 2**31 keeps each product below 2**62; reduce per term.
                local += np.mod(s[lo:hi] * z, p)
                np.mod(local, p, out=local)

        self.runtime.run(kernel, n, num_threads)
        return acc

    # -- batched 2-D kernels (multi-query fused sweeps) ------------------------

    def _kernel_overridden(self, *names: str) -> bool:
        """True when a subclass replaced any of the named 1-D kernels.

        The unified execution path routes *every* query through the
        fused 2-D kernels, including queries against deployments with
        injected malicious/instrumented servers (subclasses overriding
        the 1-D kernels).  A fused base-class sweep would silently
        bypass those overrides — the tampering would never happen and
        verification tests would vacuously pass — so the batch kernels
        fall back to stacking per-row 1-D outputs whenever a relevant
        kernel is overridden.  Honest deployments never take this path.
        """
        return any(
            getattr(type(self), name) is not getattr(PrismServer, name)
            or name in vars(self)  # instance-level monkeypatch
            for name in names
        )

    @staticmethod
    def _check_uniform(columns, share_lists) -> tuple[int, int]:
        """Validate a fused sweep's inputs; returns (num_owners, b).

        Every column must be held by the same owner set and have the same
        χ length — a fused sweep sums a fixed set of share vectors per
        row, so mixed shapes are a planner bug.  The kernels slice the
        stored 1-D vectors chunk by chunk rather than stacking them into
        per-owner matrices: no copies of the χ table are materialised.
        """
        counts = {len(s) for s in share_lists}
        if len(counts) != 1:
            raise ProtocolError(
                f"batched sweep needs a uniform owner set across columns "
                f"{list(columns)!r}; got share counts {sorted(counts)}"
            )
        lengths = {s[0].shape[0] for s in share_lists}
        if len(lengths) != 1:
            raise ProtocolError(
                f"batched sweep needs equal-length columns; got {sorted(lengths)}"
            )
        return counts.pop(), lengths.pop()

    def _batch_m_shares(self, subtract_m, num_owners, owner_ids) -> np.ndarray:
        """Per-row ``A(m)`` column vector for a fused Eq. 3/Eq. 7 sweep."""
        m_share = self.params.m_share
        if owner_ids is not None and num_owners != self.params.num_owners:
            m_share = self._subset_m_share(num_owners)
        rows = np.fromiter((m_share if flag else 0 for flag in subtract_m),
                           dtype=np.int64, count=len(subtract_m))
        return rows[:, None]

    def psi_round_batch(self, columns, num_threads: int = 1,
                        owner_ids: list[int] | None = None,
                        subtract_m=None, shard_plan=None) -> np.ndarray:
        """Fused multi-query Eq. 3 / Eq. 7 sweep (2-D :meth:`psi_round`).

        Row ``q`` of the returned ``(Q, b)`` matrix is bit-identical to
        ``psi_round(columns[q])`` when ``subtract_m[q]`` is true (the
        default) and to ``verification_round(columns[q])`` otherwise, but
        all rows are produced by a *single* chunked pass over the χ length:
        every row's per-owner share vectors are summed into one 2-D
        accumulator, then reduced and exponentiated together.  The sweep
        stays
        branch-free over the full table, so access-pattern hiding is
        preserved — the instruction sequence depends only on the batch
        shape, never on the data.

        ``shard_plan`` (default: the server's own plan) runs the sweep
        shard-parallel on the deployment's thread pool; outputs stay
        bit-identical to the unsharded sweep for every shard count.
        """
        if not len(columns):
            raise ProtocolError("batched PSI sweep needs at least one column")
        if subtract_m is None:
            subtract_m = [True] * len(columns)
        if len(subtract_m) != len(columns):
            raise ProtocolError("subtract_m flags must match the column count")
        if self._kernel_overridden("psi_round", "verification_round"):
            return np.stack([
                self.psi_round(column, num_threads, owner_ids) if subtract
                else self.verification_round(column, num_threads, owner_ids)
                for column, subtract in zip(columns, subtract_m)
            ])
        share_lists = [self.fetch_additive(c, owner_ids) for c in columns]
        num_owners, n = self._check_uniform(columns, share_lists)
        delta = self.params.delta
        table = self.params.group.power_table
        m_rows = self._batch_m_shares(subtract_m, num_owners, owner_ids)
        out = np.empty((len(columns), n), dtype=np.int64)
        kernel = kernels.psi_sweep(share_lists, m_rows, delta, table, out)
        if kernel is None:
            acc = np.zeros_like(out)

            def kernel(lo: int, hi: int) -> None:
                local = acc[:, lo:hi]
                for q, row_shares in enumerate(share_lists):
                    row = local[q]
                    for s in row_shares:
                        row += s[lo:hi]
                local -= m_rows
                np.mod(local, delta, out=local)
                out[:, lo:hi] = table[local]

        self.runtime.run(kernel, n,
                         self._sweep_chunks(num_threads, shard_plan))
        return out

    def psi_cells_round_batch(self, columns, cells, num_threads: int = 1,
                              owner_ids: list[int] | None = None,
                              subtract_m=None, shard_plan=None) -> np.ndarray:
        """Fused Eq. 3 / Eq. 7 sweep restricted to a subset of χ cells.

        Row ``q`` of the returned ``(Q, len(cells))`` matrix equals
        ``psi_round_batch(columns)[q][cells]`` — the kernel is
        cell-local, so restricting the sweep to the named cells is
        bit-identical to slicing the full sweep (and to the historical
        slice-then-``psi_round`` path the bucketized runner used).  This
        is the per-level sweep of bucketized PSI (§6.6): only the active
        bucket nodes are computed, which is the whole point of the
        bucket tree.

        ``cells`` is a 1-D array of χ cell indices, in output order.
        ``shard_plan`` decomposes the *cells array* into contiguous
        shards and runs them on the deployment's thread pool, like
        :meth:`psi_round_batch`; subclasses that override the 1-D kernels
        fall back to the per-row slice-and-sweep path, so malicious /
        instrumented servers keep misbehaving on exactly the active
        cells.
        """
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 1:
            raise ProtocolError(
                f"cell index array must be 1-D, got shape {cells.shape}")
        if not len(columns):
            raise ProtocolError("cell-restricted sweep needs at least one "
                                "column")
        if subtract_m is None:
            subtract_m = [True] * len(columns)
        if len(subtract_m) != len(columns):
            raise ProtocolError("subtract_m flags must match the column count")
        def check_cells(b: int) -> None:
            if cells.size and (int(cells.min()) < 0 or int(cells.max()) >= b):
                raise ProtocolError(
                    f"cell indices out of range for χ length {b}")

        if self._kernel_overridden("psi_round", "verification_round"):
            rows = []
            for column, subtract in zip(columns, subtract_m):
                full = self.fetch_additive(column, owner_ids)
                check_cells(full[0].shape[0])
                shares = [s[cells] for s in full]
                rows.append(
                    self.psi_round(column, num_threads, owner_ids, shares)
                    if subtract else
                    self.verification_round(column, num_threads, owner_ids,
                                            shares))
            return np.stack(rows)
        share_lists = [self.fetch_additive(c, owner_ids) for c in columns]
        num_owners, b = self._check_uniform(columns, share_lists)
        check_cells(b)
        n = cells.shape[0]
        if n == 0:
            return np.empty((len(columns), 0), dtype=np.int64)
        delta = self.params.delta
        table = self.params.group.power_table
        m_rows = self._batch_m_shares(subtract_m, num_owners, owner_ids)
        out = np.empty((len(columns), n), dtype=np.int64)
        kernel = kernels.psi_sweep(share_lists, m_rows, delta, table, out,
                                   cells=cells)
        if kernel is None:
            acc = np.zeros_like(out)

            def kernel(lo: int, hi: int) -> None:
                span = cells[lo:hi]
                local = acc[:, lo:hi]
                for q, row_shares in enumerate(share_lists):
                    row = local[q]
                    for s in row_shares:
                        row += s[span]
                local -= m_rows
                np.mod(local, delta, out=local)
                out[:, lo:hi] = table[local]

        self.runtime.run(kernel, n,
                         self._sweep_chunks(num_threads, shard_plan))
        return out

    def count_round_batch(self, columns, num_threads: int = 1,
                          owner_ids: list[int] | None = None,
                          subtract_m=None, use_pf_s2=None,
                          shard_plan=None) -> np.ndarray:
        """Fused multi-query §6.5 sweep (2-D :meth:`count_round`).

        Data-stream rows (``subtract_m`` true, the default) leave permuted
        by ``PF_s1``; complement-proof rows (``subtract_m`` false with
        ``use_pf_s2`` true) by ``PF_s2`` — exactly the Eq. (1) pairing of
        :meth:`count_round` / :meth:`count_verification_round`, per row.
        """
        if not len(columns):
            raise ProtocolError("batched count sweep needs at least one column")
        if subtract_m is None:
            subtract_m = [True] * len(columns)
        if len(subtract_m) != len(columns):
            raise ProtocolError("subtract_m flags must match the column count")
        if use_pf_s2 is None:
            use_pf_s2 = [False] * len(columns)
        if len(use_pf_s2) != len(columns):
            raise ProtocolError("use_pf_s2 flags must match the column count")
        if self._kernel_overridden("count_round", "count_verification_round"):
            rows = []
            for column, subtract, pf2 in zip(columns, subtract_m, use_pf_s2):
                if subtract and not pf2:
                    rows.append(self.count_round(column, num_threads,
                                                 owner_ids))
                elif pf2 and not subtract:
                    rows.append(self.count_verification_round(
                        column, num_threads, owner_ids))
                else:
                    raise ProtocolError(
                        "per-row count fallback supports only the §6.5 "
                        "data/proof row shapes"
                    )
            return np.stack(rows)
        out = self.psi_round_batch(columns, num_threads, owner_ids, subtract_m,
                                   shard_plan=shard_plan)
        for row, flag in enumerate(use_pf_s2):
            pf = self.params.pf_s2 if flag else self.params.pf_s1
            out[row] = pf.apply(out[row])
        return out

    def psu_round_batch(self, columns, query_nonces, num_threads: int = 1,
                        owner_ids: list[int] | None = None,
                        permute=None, shard_plan=None) -> np.ndarray:
        """Fused multi-query Eq. 18 sweep (2-D :meth:`psu_round`).

        Row ``q`` equals ``psu_round(columns[q], query_nonces[q])`` — each
        query keeps its own fresh mask stream — but the owner-share sums
        are computed once per *distinct* column and broadcast across the
        rows that reference it.  ``permute[q]`` additionally applies
        ``PF_s1`` to row ``q`` (the PSU-Count path).

        Each span of the compiled sweep seeks the common counter-mode PRG
        to its own span of every row's Eq. 18 mask stream, so mask
        generation — the dominant PSU cost — shards along with the
        sweep, bit-identically to slicing the full-length stream.
        """
        if not len(columns):
            raise ProtocolError("batched PSU sweep needs at least one column")
        if len(query_nonces) != len(columns):
            raise ProtocolError("query_nonces must match the column count")
        if permute is not None and len(permute) != len(columns):
            raise ProtocolError("permute flags must match the column count")
        if self._kernel_overridden("psu_round"):
            out = np.stack([
                self.psu_round(column, nonce, num_threads, owner_ids)
                for column, nonce in zip(columns, query_nonces)
            ])
            return self._apply_psu_permute(out, permute)
        uniq = list(dict.fromkeys(columns))
        row_map = np.fromiter((uniq.index(c) for c in columns),
                              dtype=np.int64, count=len(columns))
        share_lists = [self.fetch_additive(c, owner_ids) for c in uniq]
        _, n = self._check_uniform(uniq, share_lists)
        delta = self.params.delta
        acc = np.zeros((len(uniq), n), dtype=np.int64)
        out = np.empty((len(columns), n), dtype=np.int64)
        keys = [SeededPRG(self.params.prg_seed, f"psu-{nonce}").key_bytes
                for nonce in query_nonces]
        kernel = kernels.psu_sweep(share_lists, acc, row_map, keys, delta,
                                   out)
        if kernel is None:
            rand = np.stack([
                SeededPRG(self.params.prg_seed,
                          f"psu-{nonce}").integers(n, 1, delta)
                for nonce in query_nonces
            ])

            def kernel(lo: int, hi: int) -> None:
                local = acc[:, lo:hi]
                for u, col_shares in enumerate(share_lists):
                    row = local[u]
                    for s in col_shares:
                        row += s[lo:hi]
                np.mod(local, delta, out=local)
                out[:, lo:hi] = np.mod(local[row_map] * rand[:, lo:hi], delta)

        self.runtime.run(kernel, n,
                         self._sweep_chunks(num_threads, shard_plan))
        return self._apply_psu_permute(out, permute)

    def _apply_psu_permute(self, out: np.ndarray, permute) -> np.ndarray:
        """Apply per-row ``PF_s1`` to the flagged rows (the PSU-Count path)."""
        if permute is not None:
            for row, flag in enumerate(permute):
                if flag:
                    out[row] = self.params.pf_s1.apply(out[row])
        return out

    def aggregate_round_batch(self, columns, z_matrix: np.ndarray,
                              num_threads: int = 1,
                              owner_ids: list[int] | None = None,
                              shard_plan=None) -> np.ndarray:
        """Fused multi-query Eq. 11 sweep (2-D :meth:`aggregate_round`).

        ``z_matrix`` stacks one indicator-share vector per query row;
        ``columns[q]`` names the Shamir aggregation column row ``q``
        multiplies into.  Row ``q`` is bit-identical to
        ``aggregate_round(columns[q], z_matrix[q])``; a ``shard_plan``
        runs the sweep shard-parallel.
        """
        if not len(columns):
            raise ProtocolError("batched aggregation needs at least one column")
        # ALIGNED matters for wire-decoded z matrices: the codec hands
        # out zero-copy frame views, which the compiled sweeps (and fast
        # numpy paths) want re-packed once, here.
        z_matrix = np.require(z_matrix, dtype=np.int64,
                              requirements=["ALIGNED", "C_CONTIGUOUS"])
        if z_matrix.ndim != 2 or z_matrix.shape[0] != len(columns):
            raise ProtocolError(
                f"z matrix of shape {z_matrix.shape} does not stack one row "
                f"per column ({len(columns)} expected)"
            )
        if self._kernel_overridden("aggregate_round"):
            return np.stack([
                self.aggregate_round(column, z_matrix[row], num_threads,
                                     owner_ids)
                for row, column in enumerate(columns)
            ])
        share_lists = [self.fetch_shamir(c, owner_ids) for c in columns]
        _, n = self._check_uniform(columns, share_lists)
        if z_matrix.shape[1] != n:
            raise ProtocolError(
                f"z vector length {z_matrix.shape[1]} does not match column "
                f"length {n}"
            )
        p = self.params.field_prime
        acc = np.zeros((len(columns), n), dtype=np.int64)
        kernel = kernels.agg_sweep(share_lists, z_matrix, p, acc)
        if kernel is None:
            def kernel(lo: int, hi: int) -> None:
                local = acc[:, lo:hi]
                for q, row_shares in enumerate(share_lists):
                    z = z_matrix[q, lo:hi]
                    row = local[q]
                    for s in row_shares:
                        # p < 2**31 keeps each product below 2**62; reduce
                        # per term.
                        row += np.mod(s[lo:hi] * z, p)
                        np.mod(row, p, out=row)

        self.runtime.run(kernel, n,
                         self._sweep_chunks(num_threads, shard_plan))
        return acc

    # -- extrema machinery (§6.3) ---------------------------------------------

    def extrema_collect(self, owner_shares: dict[int, int]) -> list[int]:
        """Step 4: place owners' blinded shares in an array and permute.

        Args:
            owner_shares: owner id → this server's additive share (big int)
                of that owner's blinded value ``v = F(M) + r``.

        Returns the ``PF``-permuted share array destined for the announcer.
        """
        m = self.params.num_owners
        if sorted(owner_shares) != list(range(m)):
            raise ProtocolError(
                f"extrema round expected shares from all {m} owners, got "
                f"{sorted(owner_shares)}"
            )
        array = np.empty(m, dtype=object)
        for owner, share in owner_shares.items():
            array[owner] = share
        permuted = self.params.pf_owners.apply(array)
        return [int(v) for v in permuted]

    def fpos_round(self, alpha_shares: dict[int, int]) -> list[int]:
        """Step 6: assemble the fpos vector of α shares, ordered by owner."""
        m = self.params.num_owners
        if sorted(alpha_shares) != list(range(m)):
            raise ProtocolError(
                f"fpos round expected shares from all {m} owners, got "
                f"{sorted(alpha_shares)}"
            )
        return [int(alpha_shares[i]) for i in range(m)]

    def forward(self, payload):
        """Relay a payload unchanged (announcer→owner hops go via servers)."""
        return payload
