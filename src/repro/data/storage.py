"""Server-side secret-share storage, modelling the paper's Table 11.

Each owner outsources, per attribute, either an *additive* share vector
(the χ indicator tables, length ``b``) or a *Shamir* share vector (the
aggregation columns), each at the width of its modulus
(:mod:`repro.crypto.widths`).  A server's :class:`ServerStore` holds its share of
every owner's every column; the paper's layout (five data columns, five
verification columns prefixed ``v``, plus the count column ``aOK``) maps
directly onto column names here (``OK``, ``vOK``, ``PK``, ..., ``aOK``).

The store also exposes the "data fetch" operation measured in Exp 1: the
servers read all owners' share vectors for a column before computing.
Fetches are memoised per ``(column, kind, owner set)`` — a batch whose
row groups all resolve to the same owner set (``owner_ids=None`` and the
explicit full-owner tuple hash to the same resolved key) assembles each
share list once, not once per row group — and the cache is dropped on
every :meth:`~ServerStore.put`, which also bumps
:attr:`~ServerStore.version`.

Beside the fetch memo the store keeps the server's *owner-summed*
vectors (:meth:`~ServerStore.summed`): one vector per ``(column, kind)``
holding the sum of one resolved owner set's shares, mod δ for additive
columns and mod p for Shamir columns.  The server builds them with its
sweep kernels and hands them over with :meth:`~ServerStore.keep_summed`;
the store only keeps and drops them, so it never imports the kernels.
Both memos publish an entry only if no :meth:`~ServerStore.put` ran
since its inputs were read, and serve it only at the version it was
read at, so a racing write can never leave stale shares behind.
"""

from __future__ import annotations

import bisect
import enum

import numpy as np

from repro.exceptions import ProtocolError


class ShareKind(enum.Enum):
    """How a stored column is shared (determines the legal operations)."""

    ADDITIVE = "additive"
    SHAMIR = "shamir"


class StoredColumn:
    """One owner's share of one column, plus its sharing kind."""

    __slots__ = ("values", "kind")

    def __init__(self, values: np.ndarray, kind: ShareKind):
        # Stored columns are the long-lived kernel inputs: require an
        # aligned, contiguous copy *here* — the single retention point —
        # so the wire codec can hand out zero-copy views (which may be
        # unaligned and frame-backed) on the hot decode path without
        # pinning whole receive blobs in the store.  The dtype is kept:
        # the server admits each column at the width of its modulus
        # (``PrismServer.receive_shares``); the store only refuses
        # values that are not integers at all.
        values = np.asarray(values)
        if values.dtype.kind not in "iu":
            raise ProtocolError(
                f"share columns hold integers, not {values.dtype}")
        self.values = np.require(values,
                                 requirements=["ALIGNED", "C_CONTIGUOUS"])
        self.kind = kind

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes)


class ServerStore:
    """All share vectors held by a single server.

    Keys are ``(owner_id, column_name)``.  The protocols fetch *columns
    across owners* (e.g. every owner's ``OK`` share) — :meth:`fetch_column`
    returns them ordered by owner id, which is the layout the vectorised
    server kernels consume.
    """

    def __init__(self):
        self._data: dict[tuple[int, str], StoredColumn] = {}
        # column -> sorted owner ids holding it (kept by put).
        self._holders: dict[str, list[int]] = {}
        self._version = 0
        # (column, kind, resolved owner tuple) -> (version, share vectors).
        self._fetch_cache: dict[tuple, tuple[int, list[np.ndarray]]] = {}
        self._fetch_hits = 0
        self._fetch_misses = 0
        # (column, kind) -> (version, resolved owner tuple, summed vector).
        self._summed: dict[tuple, tuple[int, tuple, np.ndarray]] = {}
        self._sum_builds = 0
        self._sum_hits = 0

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every :meth:`put`.

        Consumers that snapshot the store (such as the fetch memo below)
        compare versions to decide whether their view is stale.
        """
        return self._version

    def put(self, owner_id: int, column: str, values: np.ndarray,
            kind: ShareKind) -> None:
        """Store (or overwrite) one owner's share of one column."""
        self._data[(owner_id, column)] = StoredColumn(values, kind)
        holders = self._holders.setdefault(column, [])
        if owner_id not in holders:
            bisect.insort(holders, owner_id)
        self._version += 1
        # Puts happen in bursts (outsourcing) and queries in between;
        # dropping both memos on write keeps reads trivially fresh.
        self._fetch_cache.clear()
        self._summed.clear()

    def get(self, owner_id: int, column: str) -> StoredColumn:
        try:
            return self._data[(owner_id, column)]
        except KeyError:
            raise ProtocolError(
                f"server holds no share of column {column!r} for owner {owner_id}"
            ) from None

    def has(self, owner_id: int, column: str) -> bool:
        return (owner_id, column) in self._data

    def owners_with(self, column: str) -> list[int]:
        """Owner ids that have outsourced the named column, sorted."""
        return list(self._holders.get(column, ()))

    def columns_of(self, owner_id: int) -> list[str]:
        """Column names outsourced by one owner, sorted."""
        return sorted(c for (o, c) in self._data if o == owner_id)

    def _owners(self, column: str, owner_ids) -> tuple[int, ...]:
        """The resolved owner set: ``None`` means every holder of
        ``column``."""
        owners = owner_ids if owner_ids is not None else self.owners_with(column)
        if not owners:
            raise ProtocolError(f"no owner outsourced column {column!r}")
        return tuple(owners)

    def fetch_column(self, column: str, kind: ShareKind,
                     owner_ids: list[int] | None = None) -> list[np.ndarray]:
        """All owners' shares of ``column``, ordered by owner id.

        This is the Exp-1 "data fetch" step.  Raises if any owner's column
        was stored with a different :class:`ShareKind` than requested —
        mixing additive and Shamir shares is a protocol bug.

        Results are memoised per ``(column, kind, resolved owner set)``
        (``owner_ids=None`` resolves to the full owner tuple, so it
        shares an entry with the explicit full set); the memo is dropped
        on every :meth:`put`, and a list read while a ``put`` ran is
        returned but never kept.  The returned list is a fresh copy, but
        the share vectors themselves are the stored arrays, exactly as
        before memoisation.
        """
        version = self._version
        key = (column, kind, self._owners(column, owner_ids))
        cached = self._fetch_cache.get(key)
        if cached is not None and cached[0] == version:
            self._fetch_hits += 1
            return list(cached[1])
        self._fetch_misses += 1
        out = []
        for owner in key[2]:
            stored = self.get(owner, column)
            if stored.kind is not kind:
                raise ProtocolError(
                    f"column {column!r} of owner {owner} is {stored.kind.value}-"
                    f"shared but the protocol expected {kind.value}"
                )
            out.append(stored.values)
        if version == self._version:
            self._fetch_cache[key] = (version, out)
        return list(out)

    def summed(self, column: str, kind: ShareKind,
               owner_ids: list[int] | None = None) -> np.ndarray | None:
        """The kept owner-summed vector of ``column`` for the resolved
        owner set, or ``None`` when the server must build it.

        At most one vector is kept per ``(column, kind)``: a sweep over
        another owner set misses and replaces it.  Whether this hits
        depends only on the query shape and the store version.
        """
        entry = self._summed.get((column, kind))
        if (entry is None or entry[0] != self._version
                or entry[1] != self._owners(column, owner_ids)):
            return None
        self._sum_hits += 1
        return entry[2]

    def keep_summed(self, column: str, kind: ShareKind, owner_ids,
                    vector: np.ndarray, version: int) -> None:
        """Keep a freshly built owner-summed vector of ``column``.

        ``version`` is :attr:`version` as read before the shares it sums
        were fetched: a vector built while a :meth:`put` ran is counted
        but not kept, and one published after such a put is never
        served (:meth:`summed` checks the version it was read at).
        """
        self._sum_builds += 1
        if version == self._version:
            self._summed[(column, kind)] = (
                version, self._owners(column, owner_ids), vector)

    def fetch_cache_info(self) -> dict[str, int]:
        """Memo counters: fetch-memo entries, hits and misses, and the
        owner-summed vectors kept (``sums``), built (``sum_builds``) and
        served again (``sum_hits``)."""
        return {
            "entries": len(self._fetch_cache),
            "hits": self._fetch_hits,
            "misses": self._fetch_misses,
            "sums": len(self._summed),
            "sum_builds": self._sum_builds,
            "sum_hits": self._sum_hits,
        }

    @property
    def nbytes(self) -> int:
        """Total bytes of share data at this server."""
        return sum(col.nbytes for col in self._data.values())

    def __len__(self) -> int:
        return len(self._data)
