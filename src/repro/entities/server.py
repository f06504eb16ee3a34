"""The Prism server (§3.2 entity 2).

A server stores secret shares and runs the per-query kernels.  It never
sees cleartext, never addresses another server, and executes identical
instruction sequences regardless of the data (access-pattern hiding): all
kernels are branch-free sweeps over the full χ length ``b``.

Every stored column and every output row is held at the width of its
modulus (:mod:`repro.crypto.widths`): χ shares and PSU outputs mod δ
(uint8 by default), PSI/verification/count outputs mod η' (uint16),
aggregation shares, z shares and outputs mod p (uint32).
:meth:`PrismServer.receive_shares` admits a column only as residues of
its modulus.  Each server equation is written once, as a numpy span
builder with the same signature and ``kernel(lo, hi)`` contract as its
compiled twin in :mod:`repro.kernels`:

* :func:`numpy_sum_sweep` — the owner sum: Σ_j s_j mod δ for an
  additive column, Σ_j s_j mod p for a Shamir column.
* :func:`numpy_psi_sweep` — Eq. 3 (PSI) and Eq. 7 (its verification
  stream over the complement table), optionally over a cell subset: a
  summed share gathered from a folded table.
* :func:`numpy_psu_sweep` — Eq. 18: masked additive sums with the
  common PRG stream.
* :func:`numpy_agg_sweep` — Eq. 11: (Σ_j Shamir(x2)_j)·Shamir(z) per cell.

:func:`psi_sweep`, :func:`sum_sweep`, :func:`psu_sweep` and
:func:`agg_sweep` are the only places that choose the compiled kernel
or its numpy twin, and the fused
2-D kernels (:meth:`PrismServer.psi_round_batch` and friends; one query
is a batch of one row) are the only places that set them up.
:meth:`PrismServer.indicator_round` runs a whole round 1 — every Eq. 3/7
and Eq. 18 sweep of a batch, or one bucketized level's cell-restricted
Eq. 3 sweep, in order — as one call, so a remote server takes one frame
per round.  A §6.5 count sweep is an Eq. 3 sweep whose
rows leave permuted by ``PF_s1`` / ``PF_s2`` (:func:`permute_rows`).
The entity host's span-scoped frames run those same kernels with a
``span`` window of their output columns.
:meth:`~PrismServer.extrema_collect` / :meth:`~PrismServer.fpos_round`
hold the §6.3 max machinery.

Each equation's owners enter only through their sum, so a server keeps
one *owner-summed* vector per ``(column, kind)`` and resolved owner set
in its store (:meth:`~repro.data.storage.ServerStore.summed`).  The
first sweep of a store version builds it with :func:`sum_sweep`, the
only builder that takes per-owner share lists
(:meth:`PrismServer._owner_sum`); every Eq. 3/7, Eq. 18 and Eq. 11 row
— whole-χ, ``cells`` or span window — reads that one vector, with
bit-identical outputs.
The fetch step is unchanged, so access traces do not change either:
whether a sweep builds or reads depends only on the query shape and the
store version.

Every sweep splits the χ table into contiguous spans on the
deployment's *persistent* thread pool
(:class:`~repro.core.sharding.ShardRuntime`), bit-identically for every
span count: :attr:`PrismServer.num_shards` spans by default, or the
kernels' per-call ``num_shards``; Exp 1 (Fig. 3) sweeps it as
the server thread count.  Malicious servers
override one post-sweep seam, :meth:`PrismServer.tamper`, which every
sweep calls once per output row, so fault injection runs the same
kernels as honest deployments.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.core.params import ServerParams
from repro.core.sharding import ShardRuntime
from repro.crypto.prg import SeededPRG
from repro.crypto.widths import as_shares, share_dtype
from repro.data.storage import ServerStore, ShareKind
from repro.exceptions import ProtocolError
from repro.network.message import Endpoint, Role

# -- one span builder per equation ---------------------------------------------


def numpy_psi_sweep(summed, tables: np.ndarray, out: np.ndarray,
                    cells: np.ndarray | None = None):
    """Eq. 3/7: ``out[q, i] = tables[q, Σ_j A(x_i)_j mod δ]``.

    ``summed[q]`` is row ``q``'s owner sum mod δ (:func:`numpy_sum_sweep`),
    from which the row gathers through its folded table
    (:meth:`ServerGroupView.folded_tables`), whose entry ``k`` is
    ``g^((k ⊖ A(m)) mod δ) mod η'`` for the row's share of the owner
    count (Eq. 3, PSI) or for zero (Eq. 7, the verification stream over
    the complement table — the same sweep shape, so the two are
    indistinguishable).  With ``cells`` the span indexes the cells array
    and gathers those χ cells (the bucketized per-level sweep); without
    it the span indexes χ directly.  numpy twin of
    :func:`repro.kernels.psi_sweep`.

    Raises:
        ProtocolError: when a summed share overruns the folded table (a
            value outside ``[0, δ)``).
    """
    width = tables.shape[1]

    def kernel(lo: int, hi: int) -> None:
        index = slice(lo, hi) if cells is None else cells[lo:hi]
        for q, vector in enumerate(summed):
            values = vector[index]
            if values.size and values.max() >= width:
                raise ProtocolError("additive share outside the folded "
                                    "Eq. 3 table: a share is not mod δ")
            np.take(tables[q], values, out=out[q, lo:hi])
    return kernel


def numpy_sum_sweep(share_lists, modulus: int, out: np.ndarray):
    """Owner sum: ``out[u, i] = Σ_j share_lists[u][j][i] mod modulus``.

    Each row keeps a running residue, reduced after every owner's share
    is added, in a dtype that holds the sum of two residues, so no sum
    wraps for any owner count.  This is how :class:`PrismServer` builds
    its owner-summed vectors of both kinds: additive columns mod δ, the
    owner sum of Eq. 3/7 and Eq. 18, and Shamir columns mod p, the owner
    sum of Eq. 11.  numpy twin of :func:`repro.kernels.sum_sweep`.
    """
    acc_dtype = share_dtype(2 * modulus - 1)

    def kernel(lo: int, hi: int) -> None:
        total = np.empty(hi - lo, dtype=acc_dtype)
        for row, col_shares in zip(out, share_lists):
            total.fill(0)
            for s in col_shares:
                total += s[lo:hi]
                np.remainder(total, modulus, out=total)
            row[lo:hi] = total
    return kernel


def numpy_psu_sweep(summed, keys: list[bytes], delta: int, out: np.ndarray,
                    draw_base: int = 0):
    """Eq. 18: ``out[q, i] = (Σ_j A(x_i)_j mod δ) · rand_q[i] mod δ``.

    ``summed[q]`` is output row ``q``'s owner sum mod δ
    (:func:`numpy_sum_sweep`) and ``keys[q]`` its mask stream, whose
    draws ``rand_q[i] ∈ [1, δ)`` both servers derive from the common PRG
    seed.  Owners adding the two outputs get ``(Σ_j x_ij) · rand[i] mod
    δ`` — zero iff no owner holds the value.  ``draw_base`` offsets the
    draws when the arrays are span-local, so every span seeks the
    absolute stream.  numpy twin of :func:`repro.kernels.psu_sweep`.
    """
    prgs = [SeededPRG.from_key(key) for key in keys]

    def kernel(lo: int, hi: int) -> None:
        rand = np.stack([prg.integers_at(draw_base + lo, hi - lo, 1, delta)
                         for prg in prgs])
        # Both factors are below δ < 2**32, so their uint64 product
        # cannot wrap.
        product = np.multiply(np.stack([v[lo:hi] for v in summed]), rand,
                              dtype=np.uint64, casting="unsafe")
        out[:, lo:hi] = np.remainder(product, delta, out=product)
    return kernel


def numpy_agg_sweep(summed, z_matrix: np.ndarray, p: int, out: np.ndarray):
    """Eq. 11: ``out[q, i] = (Σ_j S(x_i2)_j mod p) × S(z_i) mod p``.

    ``summed[q]`` is row ``q``'s owner sum mod p of a Shamir column
    (:func:`numpy_sum_sweep`) and ``z_matrix[q]`` this server's Shamir
    share of the row's 0/1 intersection indicator; the product of two
    degree-1 shares is a degree-2 share, which owners reconstruct with
    all three servers.  Eq. 11 is linear in the owners' shares, so
    ``(Σ_j s_j mod p)·z ≡ Σ_j s_j·z (mod p)``.  Each product of two
    field elements (uint32) is formed in uint64.  numpy twin of
    :func:`repro.kernels.agg_sweep`.
    """
    def kernel(lo: int, hi: int) -> None:
        for q, vector in enumerate(summed):
            product = np.multiply(vector[lo:hi], z_matrix[q, lo:hi],
                                  dtype=np.uint64)
            np.remainder(product, p, out=out[q, lo:hi])
    return kernel


def psi_sweep(summed, tables, out, cells=None):
    """The Eq. 3/7 span kernel: compiled where the tier engages, else numpy."""
    return (kernels.psi_sweep(summed, tables, out, cells=cells)
            or numpy_psi_sweep(summed, tables, out, cells=cells))


def sum_sweep(share_lists, modulus, out):
    """The owner-sum span kernel: compiled where the tier engages, else
    numpy."""
    return (kernels.sum_sweep(share_lists, modulus, out)
            or numpy_sum_sweep(share_lists, modulus, out))


def psu_sweep(summed, keys, delta, out, draw_base=0):
    """The Eq. 18 span kernel: compiled where the tier engages, else numpy."""
    return (kernels.psu_sweep(summed, keys, delta, out, draw_base=draw_base)
            or numpy_psu_sweep(summed, keys, delta, out, draw_base=draw_base))


def agg_sweep(summed, z_matrix, p, out):
    """The Eq. 11 span kernel: compiled where the tier engages, else numpy."""
    return (kernels.agg_sweep(summed, z_matrix, p, out)
            or numpy_agg_sweep(summed, z_matrix, p, out))


def permute_rows(params: ServerParams, out: np.ndarray, permute,
                 span=None) -> np.ndarray:
    """Apply each row's post-sweep permutation, after the tamper seam.

    ``permute[q]`` is ``None``, ``"pf_s1"`` or ``"pf_s2"`` (§6.5: a
    count's data stream leaves permuted by ``PF_s1``, its complement
    proof by ``PF_s2``); ``permute=None`` leaves every row as swept.

    Raises:
        ProtocolError: for a list whose length is not the row count,
            another name, or a permuted row of a ``span`` window (a
            permutation is not span-local: the dispatcher applies it
            after concatenation).
    """
    if permute is None:
        return out
    if len(permute) != len(out):
        raise ProtocolError("permute flags must match the column count")
    for row, name in enumerate(permute):
        if name is None:
            continue
        if not isinstance(name, str) or name not in ("pf_s1", "pf_s2"):
            raise ProtocolError(f"unknown row permutation {name!r}; "
                                f"expected None, 'pf_s1' or 'pf_s2'")
        if span is not None:
            raise ProtocolError(
                "a span frame serves the unpermuted sweep; the dispatcher "
                "permutes after concatenation")
        out[row] = getattr(params, name).apply(out[row])
    return out


def _cell_indices(cells) -> np.ndarray:
    """A cells sweep's χ cell indices, as an aligned 1-D int64 array.

    Only a 1-D integer array or a list of exact ``int``s is taken: a
    float or bool index would otherwise be truncated to a cell nobody
    asked for.  Range checks wait for the χ length (:meth:`PrismServer.
    _psi_rows`).  ALIGNED matters for wire-decoded arrays, as in
    :meth:`PrismServer.admit_z`: a zero-copy frame view at an odd
    offset would send the sweep to the numpy twin.
    """
    if isinstance(cells, np.ndarray):
        if (cells.dtype == np.int64 and cells.ndim == 1
                and cells.flags.aligned and cells.flags.c_contiguous):
            return cells
        admissible = cells.ndim == 1 and cells.dtype.kind in "iu"
    else:
        admissible = isinstance(cells, list) and all(
            type(cell) is int for cell in cells)
    if not admissible:
        raise ProtocolError("cell indices must be a 1-D integer array or a "
                            "list of ints")
    try:
        return np.require(cells, np.int64, ["ALIGNED", "C_CONTIGUOUS"])
    except OverflowError as exc:
        raise ProtocolError(f"cell index out of range: {exc}") from exc


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
        #: Span count of every sweep that names none (the deployment
        #: default, set by ``attach_sharding``).
        self.num_shards = 1
        #: The thread pool every sweep runs on (``attach_sharding``
        #: replaces it with the deployment's shared runtime).
        self.runtime = ShardRuntime()

    # -- execution machinery --------------------------------------------------

    def close(self) -> None:
        """Quiesce and join the sweep thread pool (idempotent).

        The server stays usable afterwards (a later sweep builds a fresh
        pool).
        """
        self.runtime.close()

    def tamper(self, kind: str, column: str, row: np.ndarray) -> np.ndarray:
        """The post-sweep seam: an honest server returns ``row`` untouched.

        Every sweep calls this once per output row, in row order, after
        the kernel and before any ``PF_s1``/``PF_s2`` permutation.
        ``kind`` is ``"psi"`` (Eq. 3), ``"verification"`` (Eq. 7),
        ``"psu"`` (Eq. 18) or ``"aggregate"`` (Eq. 11); ``column`` names
        the row's column.  Malicious servers
        (:mod:`repro.entities.adversary`) override it, modifying ``row``
        in place or returning a replacement.
        """
        return row

    def _tamper_rows(self, out: np.ndarray, kinds, columns) -> np.ndarray:
        for q, (kind, column) in enumerate(zip(kinds, columns)):
            row = out[q]
            tampered = self.tamper(kind, column, row)
            if tampered is not row:
                out[q] = tampered
        return out

    # -- storage ------------------------------------------------------------

    def receive_shares(self, owner_id: int, column: str, values: np.ndarray,
                       kind: ShareKind) -> None:
        """Accept an outsourced share vector from an owner (Phase 1).

        The column is stored at the width of its modulus (δ for additive
        shares, the field prime for Shamir shares).

        Raises:
            ProtocolError: naming the owner and column, when ``values``
                is not an integer vector of residues in ``[0, modulus)``.
        """
        values = as_shares(values, self.params.modulus_of(kind),
                           f"owner {owner_id}'s {kind.value} column "
                           f"{column!r}")
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

    # -- sweep plumbing -------------------------------------------------------

    @staticmethod
    def _check_uniform(columns, share_lists,
                       dtype: np.dtype) -> tuple[int, int]:
        """Validate a fused sweep's inputs; returns (num_owners, b).

        Every column must be held by the same owner set, have the same χ
        length and be stored at ``dtype``, the width of its modulus — a
        fused sweep sums a fixed set of share vectors per row, so mixed
        shapes are a planner bug.  The kernels slice the stored 1-D
        vectors chunk by chunk rather than stacking them into per-owner
        matrices: no copies of the χ table are materialised.
        """
        counts = {len(s) for s in share_lists}
        if len(counts) != 1:
            raise ProtocolError(
                f"batched sweep needs a uniform owner set across columns "
                f"{list(columns)!r}; got share counts {sorted(counts)}"
            )
        widths = {s.dtype for row in share_lists for s in row}
        if widths - {dtype}:
            raise ProtocolError(
                f"batched sweep over {list(columns)!r} needs {dtype} "
                f"shares; got {sorted(map(str, widths))}")
        lengths = {s[0].shape[0] for s in share_lists}
        if len(lengths) != 1:
            raise ProtocolError(
                f"batched sweep needs equal-length columns; got {sorted(lengths)}"
            )
        return counts.pop(), lengths.pop()

    @staticmethod
    def _window(span, n: int) -> tuple[int, int]:
        """The output columns ``[lo, hi)`` of a length-``n`` sweep that a
        span-scoped frame asks for.

        Refused before any slicing: numpy would silently truncate a
        window past the end, and a concatenating dispatcher would then
        assemble a short sweep.
        """
        lo, hi = (int(bound) for bound in span)
        if not 0 <= lo < hi <= n:
            raise ProtocolError(
                f"span ({lo}, {hi}) is empty or exceeds sweep length {n}")
        return lo, hi

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

    def _batch_m_shares(self, subtract_m, num_owners, owner_ids) -> np.ndarray:
        """Per-row ``A(m)`` column vector for a fused Eq. 3/Eq. 7 sweep.

        When the query spans a subset of owners, m is that subset's size;
        shares of it are dealt with the same split ratio.
        """
        m_share = self.params.m_share
        if owner_ids is not None and num_owners != self.params.num_owners:
            m_share = self._subset_m_share(num_owners)
        rows = np.fromiter((m_share if flag else 0 for flag in subtract_m),
                           dtype=np.int64, count=len(subtract_m))
        return rows[:, None]

    def _psu_keys(self, query_nonces) -> list[bytes]:
        """Each query's Eq. 18 mask-stream key, from the common PRG seed."""
        return [SeededPRG(self.params.prg_seed, f"psu-{nonce}").key_bytes
                for nonce in query_nonces]

    def _owner_sum(self, column: str, shares, kind: ShareKind, owner_ids,
                   version: int, num_shards: int | None) -> np.ndarray:
        """``column``'s owner-summed vector: the one the store keeps, or
        one built from the fetched ``shares`` and handed to the store.

        A build runs :func:`sum_sweep` over χ into a fresh array — mod δ
        for an additive column, mod p for a Shamir column — so the first
        query of a store version pays the per-owner cost it always did.
        The store keeps the vector only if no ``put`` ran since
        ``version``, read before the fetch.  A row's sweep then gives
        the same output from this one vector as from every owner's
        shares: g has order δ, so Eq. 3/7 reads the same table entry at
        ``Σ mod δ`` as at ``Σ``, and Eq. 11 is linear, so ``(Σ_j s_j mod
        p)·z ≡ Σ_j s_j·z (mod p)``.
        """
        kept = self.store.summed(column, kind, owner_ids)
        if kept is not None:
            return kept
        n = shares[0].shape[0]
        modulus = self.params.modulus_of(kind)
        out = np.empty((1, n), dtype=share_dtype(modulus))
        self.runtime.run(sum_sweep([shares], modulus, out), n,
                         num_shards or self.num_shards)
        vector = out[0]
        self.store.keep_summed(column, kind, owner_ids, vector, version)
        return vector

    def _owner_sums(self, columns, share_lists, kind: ShareKind, owner_ids,
                    version: int, num_shards: int | None) -> list[np.ndarray]:
        """One owner-summed vector per row; a repeated column reads the
        vector its first row kept."""
        return [self._owner_sum(column, shares, kind, owner_ids, version,
                                num_shards)
                for column, shares in zip(columns, share_lists)]

    def _psi_rows(self, columns, subtract_m, owner_ids,
                  num_shards: int | None = None,
                  cells: np.ndarray | None = None,
                  span=None) -> np.ndarray:
        """The rows of a fused Eq. 3 / Eq. 7 sweep over χ (or ``cells``),
        then tampered; ``span`` keeps only its window of the columns
        (with ``cells``: the window whose block ``cells`` is).

        Every owner's shares are still fetched and checked; the sweep
        then gathers from each row's owner-summed vector
        (:meth:`_owner_sum`) through its folded table."""
        params = self.params
        version = self.store.version
        share_lists = [self.fetch_additive(c, owner_ids) for c in columns]
        num_owners, b = self._check_uniform(columns, share_lists,
                                            params.additive_dtype)
        if cells is not None and cells.size and (
                int(cells.min()) < 0 or int(cells.max()) >= b):
            raise ProtocolError(f"cell indices out of range for χ length {b}")
        summed = self._owner_sums(columns, share_lists, ShareKind.ADDITIVE,
                                  owner_ids, version, num_shards)
        n = b if cells is None else cells.shape[0]
        if span is not None and cells is None:
            lo, hi = self._window(span, n)
            summed = [v[lo:hi] for v in summed]
            n = hi - lo
        elif span is not None:
            # Cell-local: a span frame carries exactly its window's
            # block of the cells array, which gathers from the full
            # summed vectors.
            lo, hi = (int(bound) for bound in span)
            if not 0 <= lo < hi or hi - lo != n:
                raise ProtocolError(f"cell block of {n} indices does not "
                                    f"cover span ({lo}, {hi})")
        tables = params.group.folded_tables(
            self._batch_m_shares(subtract_m, num_owners, owner_ids))
        out = np.empty((len(columns), n), dtype=params.group_dtype)
        self.runtime.run(psi_sweep(summed, tables, out, cells),
                         n, num_shards or self.num_shards)
        kinds = ["psi" if flag else "verification" for flag in subtract_m]
        return self._tamper_rows(out, kinds, columns)

    def admit_z(self, z_matrix) -> np.ndarray:
        """A querier's indicator shares as field elements at their width.

        ALIGNED matters for wire-decoded z matrices: the codec hands out
        zero-copy frame views, which the compiled sweeps (and fast numpy
        paths) want re-packed once, here.

        Raises:
            ProtocolError: for a non-integer matrix or a value outside
                ``[0, p)``.
        """
        z_matrix = as_shares(z_matrix, self.params.field_prime,
                             "indicator share matrix")
        return np.require(z_matrix, requirements=["ALIGNED", "C_CONTIGUOUS"])

    # -- batched 2-D kernels (multi-query fused sweeps) ------------------------

    @staticmethod
    def _row_flags(flags, columns, name: str, default: bool) -> list:
        if flags is None:
            return [default] * len(columns)
        if len(flags) != len(columns):
            raise ProtocolError(f"{name} flags must match the column count")
        return list(flags)

    def indicator_round(self, sweeps, num_shards: int | None = None,
                        *, span=None) -> list[np.ndarray]:
        """Round 1 of a batch: its Eq. 3/7 and Eq. 18 sweeps, in order.

        Each sweep is a dict of its ``family`` and that kernel's
        arguments: ``"psi"`` runs :meth:`psi_round_batch` (``columns``,
        ``owner_ids``, ``subtract_m``, ``permute``), ``"psu"``
        :meth:`psu_round_batch` (``columns``, ``nonces``, ``owner_ids``,
        ``permute``), and ``"cells"`` the Eq. 3/7 sweep restricted to
        the χ cells named by ``cells`` (``columns``, ``cells``,
        ``owner_ids``, ``subtract_m``) — one bucketized level (§6.6).
        Row ``q`` of a cells sweep equals ``psi_round_batch(columns)[q]
        [cells]``: the kernel is cell-local, so only the active bucket
        nodes are computed, bit-identically to slicing the full sweep.
        Returns one output matrix per sweep, each equal to its kernel
        called alone, so the ``tamper`` seam sees the same rows in the
        same order.  A remote server takes the whole round as one
        frame; a ``span`` windows every sweep — a cells sweep then
        carries exactly its window's block of the cells array, so each
        cell index travels once across a round's span frames.

        Raises:
            ProtocolError: for an empty round, an unknown family, any
                malformed sweep, or cell indices that are not a 1-D
                integer array or a list of ints — refused before any
                sweep runs.
        """
        if not isinstance(sweeps, (list, tuple)) or not sweeps:
            raise ProtocolError("an indicator round needs a list of sweeps")
        families = [sweep.get("family") if isinstance(sweep, dict) else None
                    for sweep in sweeps]
        if any(family not in ("psi", "psu", "cells") for family in families):
            raise ProtocolError(f"indicator sweep family must be 'psi', "
                                f"'psu' or 'cells'; got {families}")
        cells = [_cell_indices(sweep.get("cells")) if family == "cells"
                 else None for family, sweep in zip(families, sweeps)]
        return [
            self.psu_round_batch(sweep.get("columns", ()),
                                 sweep.get("nonces", ()),
                                 sweep.get("owner_ids"),
                                 sweep.get("permute"), num_shards, span=span)
            if family == "psu" else
            self.psi_round_batch(sweep.get("columns", ()),
                                 sweep.get("owner_ids"),
                                 sweep.get("subtract_m"),
                                 sweep.get("permute") if indices is None
                                 else None, num_shards, span=span,
                                 cells=indices)
            for family, sweep, indices in zip(families, sweeps, cells)
        ]

    def psi_round_batch(self, columns, owner_ids: list[int] | None = None,
                        subtract_m=None, permute=None,
                        num_shards: int | None = None,
                        *, span=None, cells=None) -> np.ndarray:
        """Fused multi-query Eq. 3 / Eq. 7 sweep.

        Row ``q`` of the returned ``(Q, b)`` matrix is the PSI kernel
        (Eq. 3) over ``columns[q]`` when ``subtract_m[q]`` is true (the
        default) and the verification kernel (Eq. 7, no ``⊖ A(m)``
        term, over the complement table) otherwise — the same sweep
        shape, so a server cannot tell verification traffic from PSI
        traffic.  All rows are produced by a *single* chunked pass over
        the χ length and each equals its row swept alone.  The sweep
        stays branch-free over the full table, so access-pattern hiding
        is preserved — the instruction sequence depends only on the
        batch shape, never on the data.

        ``permute[q]`` (``None``, ``"pf_s1"`` or ``"pf_s2"``) permutes
        row ``q`` after the ``tamper`` seam: a §6.5 count sweep is this
        sweep with its data rows permuted by ``PF_s1`` and its
        complement-proof rows by ``PF_s2`` — the Eq. (1) pairing of
        count verification.  Owners can still count the ones but can
        no longer map positions back to domain values.

        ``num_shards`` (default: :attr:`num_shards`) spans run
        shard-parallel on the deployment's thread pool; outputs stay
        bit-identical to the unsharded sweep for every shard count.

        ``span = (lo, hi)`` computes only output columns ``[lo, hi)``
        of the unpermuted sweep (the entity host sets it from a
        span-scoped frame's envelope); concatenated windows equal the
        whole sweep bit for bit.

        ``cells`` (1-D int64 χ cell indices, in output order; the
        ``"cells"`` sweep of :meth:`indicator_round`) restricts the
        sweep to those cells, unpermuted; the shards split the cells
        array, and a ``span`` frame carries its window's block of it.
        """
        if not len(columns):
            raise ProtocolError("batched PSI sweep needs at least one column")
        subtract_m = self._row_flags(subtract_m, columns, "subtract_m", True)
        return permute_rows(self.params, self._psi_rows(
            columns, subtract_m, owner_ids, num_shards, cells, span),
            permute, span)

    def psu_round_batch(self, columns, query_nonces,
                        owner_ids: list[int] | None = None,
                        permute=None, num_shards: int | None = None,
                        *, span=None) -> np.ndarray:
        """Fused multi-query Eq. 18 sweep.

        Row ``q`` is the PSU kernel over ``columns[q]``, masked with the
        ``query_nonces[q]`` stream — each query keeps its own fresh mask
        stream — over that column's owner-summed vector, which every
        row naming the column reads.  ``permute[q]`` permutes row ``q``
        after the ``tamper`` seam, as in :meth:`psi_round_batch`
        (``"pf_s1"``: the PSU-Count path).

        Each span seeks the common counter-mode PRG to its own span of
        every row's Eq. 18 mask stream, so mask generation — the
        dominant PSU cost — shards along with the sweep, bit-identically
        to slicing the full-length stream.  A ``span`` window seeks the
        same way (``draw_base``); it serves the unpermuted sweep, since
        ``PF_s1`` is not span-local: the dispatcher permutes after
        concatenation.
        """
        if not len(columns):
            raise ProtocolError("batched PSU sweep needs at least one column")
        if len(query_nonces) != len(columns):
            raise ProtocolError("query_nonces must match the column count")
        # Each distinct column is fetched once, in order of first
        # appearance, and its owner-summed vector read by all its rows.
        uniq = list(dict.fromkeys(columns))
        version = self.store.version
        share_lists = [self.fetch_additive(c, owner_ids) for c in uniq]
        _, n = self._check_uniform(uniq, share_lists,
                                   self.params.additive_dtype)
        lo, hi = (0, n) if span is None else self._window(span, n)
        sums = dict(zip(uniq, self._owner_sums(
            uniq, share_lists, ShareKind.ADDITIVE, owner_ids, version,
            num_shards)))
        summed = [sums[c][lo:hi] for c in columns]
        n = hi - lo
        out = np.empty((len(columns), n), dtype=self.params.additive_dtype)
        self.runtime.run(psu_sweep(summed, self._psu_keys(query_nonces),
                                   self.params.delta, out, draw_base=lo), n,
                         num_shards or self.num_shards)
        return permute_rows(self.params, self._tamper_rows(
            out, ["psu"] * len(columns), columns), permute, span)

    def aggregate_round_batch(self, columns, z_matrix: np.ndarray,
                              owner_ids: list[int] | None = None,
                              num_shards: int | None = None,
                              *, span=None) -> np.ndarray:
        """Fused multi-query Eq. 11 sweep.

        ``z_matrix`` stacks one indicator-share vector per query row:
        this server's Shamir share of a querier's 0/1 result indicator.
        ``columns[q]`` names the Shamir aggregation column row ``q``
        multiplies into; ``num_shards`` overrides the sweep's span
        count.  Under a ``span`` window ``z_matrix`` is that window's
        block of exactly ``hi - lo`` columns, so the z traffic shards
        with the sweep.
        """
        if not len(columns):
            raise ProtocolError("batched aggregation needs at least one column")
        version = self.store.version
        share_lists = [self.fetch_shamir(c, owner_ids) for c in columns]
        z_matrix = self.admit_z(z_matrix)
        if z_matrix.ndim != 2 or z_matrix.shape[0] != len(columns):
            raise ProtocolError(
                f"z matrix of shape {z_matrix.shape} does not stack one row "
                f"per column ({len(columns)} expected)"
            )
        dtype = self.params.shamir_dtype
        _, n = self._check_uniform(columns, share_lists, dtype)
        lo, hi = (0, n) if span is None else self._window(span, n)
        if z_matrix.shape[1] != hi - lo:
            raise ProtocolError(
                f"z vector length {z_matrix.shape[1]} does not match column "
                f"length {n}" if span is None else
                f"z block of shape {z_matrix.shape} does not cover span "
                f"{tuple(span)}")
        summed = [v[lo:hi] for v in self._owner_sums(
            columns, share_lists, ShareKind.SHAMIR, owner_ids, version,
            num_shards)]
        n = hi - lo
        out = np.empty((len(columns), n), dtype=dtype)
        self.runtime.run(agg_sweep(summed, z_matrix, self.params.field_prime,
                                   out), n, num_shards or self.num_shards)
        return self._tamper_rows(out, ["aggregate"] * len(columns), columns)

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
