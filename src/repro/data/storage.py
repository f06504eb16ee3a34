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
"""

from __future__ import annotations

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
        self._version = 0
        # (column, kind, resolved owner tuple) -> list of share vectors.
        self._fetch_cache: dict[tuple, list[np.ndarray]] = {}
        self._fetch_hits = 0
        self._fetch_misses = 0

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
        self._version += 1
        # Puts happen in bursts (outsourcing) and queries in between;
        # dropping the whole memo on write keeps reads trivially fresh.
        self._fetch_cache.clear()

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
        return sorted(o for (o, c) in self._data if c == column)

    def columns_of(self, owner_id: int) -> list[str]:
        """Column names outsourced by one owner, sorted."""
        return sorted(c for (o, c) in self._data if o == owner_id)

    def fetch_column(self, column: str, kind: ShareKind,
                     owner_ids: list[int] | None = None) -> list[np.ndarray]:
        """All owners' shares of ``column``, ordered by owner id.

        This is the Exp-1 "data fetch" step.  Raises if any owner's column
        was stored with a different :class:`ShareKind` than requested —
        mixing additive and Shamir shares is a protocol bug.

        Results are memoised per ``(column, kind, resolved owner set)``
        (``owner_ids=None`` resolves to the full owner tuple, so it
        shares an entry with the explicit full set); the memo is dropped
        on every :meth:`put`.  The returned list is a fresh copy, but
        the share vectors themselves are the stored arrays, exactly as
        before memoisation.
        """
        owners = owner_ids if owner_ids is not None else self.owners_with(column)
        if not owners:
            raise ProtocolError(f"no owner outsourced column {column!r}")
        key = (column, kind, tuple(owners))
        cached = self._fetch_cache.get(key)
        if cached is not None:
            self._fetch_hits += 1
            return list(cached)
        self._fetch_misses += 1
        out = []
        for owner in owners:
            stored = self.get(owner, column)
            if stored.kind is not kind:
                raise ProtocolError(
                    f"column {column!r} of owner {owner} is {stored.kind.value}-"
                    f"shared but the protocol expected {kind.value}"
                )
            out.append(stored.values)
        self._fetch_cache[key] = out
        return list(out)

    def fetch_cache_info(self) -> dict[str, int]:
        """Fetch-memo counters: entries, hits, misses."""
        return {
            "entries": len(self._fetch_cache),
            "hits": self._fetch_hits,
            "misses": self._fetch_misses,
        }

    @property
    def nbytes(self) -> int:
        """Total bytes of share data at this server."""
        return sum(col.nbytes for col in self._data.values())

    def __len__(self) -> int:
        return len(self._data)
