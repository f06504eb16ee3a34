"""Domain hashing: mapping attribute values to χ-table cells (§5.1).

Every owner must map a value ``a`` of attribute ``A_c`` to the *same* cell
of a length-``b`` table, where ``b = |Dom(A_c)|``.  Two modes:

* **Enumerated mode** — the domain is an explicit value list (the paper's
  setting: owners know ``Dom(A_c)``); a value's cell is simply its rank.
  Collision-free by construction and invertible, which PSI result decoding
  needs (cell index → value).
* **Hashed mode** — for large or implicit domains we hash values into ``b``
  cells with SHA-256.  Collisions are possible and are surfaced via
  :meth:`HashedDomainMapper.collisions`; the paper sidesteps this by using
  perfect (identity) hashing over integer key domains, and so do the
  benchmarks, but the mode is exercised by tests.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import DomainError


def _stable_bytes(value) -> bytes:
    """Canonical byte encoding of a hashable attribute value."""
    if isinstance(value, bytes):
        return b"b:" + value
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8")
    if isinstance(value, bool):
        return b"o:" + (b"1" if value else b"0")
    if isinstance(value, int):
        return b"i:" + str(value).encode("ascii")
    raise DomainError(f"unsupported attribute value type: {type(value).__name__}")


def stable_hash(value, seed: int = 0) -> int:
    """Process-independent 64-bit hash of an attribute value."""
    digest = hashlib.sha256(
        str(int(seed)).encode("ascii") + b"#" + _stable_bytes(value)
    ).digest()
    return int.from_bytes(digest[:8], "big")


class EnumeratedDomainMapper:
    """Bijective value ↔ cell mapping for an explicit domain.

    A unit-step ``range`` domain (:meth:`Domain.integer_range
    <repro.data.domain.Domain.integer_range>`) is kept as the ``range``
    and mapped by arithmetic, ``value - start``, so building one costs
    nothing per value; every other domain goes through a value index,
    one lookup per value.

    Args:
        values: the domain, in a canonical order shared by all owners (the
            initiator distributes it, §4).
    """

    def __init__(self, values: Sequence):
        if isinstance(values, range) and values.step == 1:
            self._values, self._start = values, values.start
            return
        self._values, self._start = list(values), None
        self._index = {v: i for i, v in enumerate(self._values)}
        if len(self._index) != len(self._values):
            raise DomainError("domain contains duplicate values")

    @property
    def size(self) -> int:
        return len(self._values)

    def cell_of(self, value) -> int:
        """Cell index of ``value``; raises if outside the domain."""
        try:
            if self._start is not None:
                return self._range_cell(value)
            return self._index[value]
        except KeyError:
            raise DomainError(f"value {value!r} not in the declared domain") from None

    def _range_cell(self, value) -> int:
        """The cell of ``value`` in a range domain, matching a dict lookup:
        a value equal to an integer of the range (a bool, an integral
        float, a numpy int) maps to that integer's cell.

        Raises:
            KeyError: for any other value.
        """
        try:
            number = int(value)
        except (TypeError, ValueError, OverflowError):
            raise KeyError(value) from None
        if number != value or number not in self._values:
            raise KeyError(value)
        return number - self._start

    def value_of(self, cell: int):
        """Domain value stored at ``cell``."""
        if not 0 <= cell < len(self._values):
            raise DomainError(f"cell {cell} out of range [0, {len(self._values)})")
        return self._values[cell]

    def cells_of(self, values: Iterable) -> np.ndarray:
        """Vector version of :meth:`cell_of`: an int64 cell array."""
        if not isinstance(values, np.ndarray):
            values = list(values)
        if self._start is not None:
            cells = self._range_cells(values)
            if cells is not None:
                return cells
        lookup = (self._range_cell if self._start is not None
                  else self._index.__getitem__)
        try:
            return np.fromiter((lookup(v) for v in values), dtype=np.int64,
                               count=len(values))
        except KeyError as exc:
            raise DomainError(f"value {exc.args[0]!r} not in the declared "
                              f"domain") from None

    def _range_cells(self, values) -> np.ndarray | None:
        """``value - start`` for integer input inside the range, else None
        (the caller's per-value lookup then maps or raises exactly as
        :meth:`cell_of` does)."""
        try:
            array = np.asarray(values)
        except ValueError:  # ragged nested input
            return None
        if array.ndim != 1 or array.dtype.kind not in "iu" or not array.size:
            return None
        start, stop = self._start, self._start + len(self._values)
        if array.min() < start or array.max() >= stop:
            return None
        return array.astype(np.int64) - start

    def values_at(self, cells) -> list:
        """Vector version of :meth:`value_of`: the values at ``cells``."""
        cells = checked_cells(cells, len(self._values))
        if self._start is not None:
            return (cells + self._start).tolist()
        values = self._values
        return [values[c] for c in cells.tolist()]

    def values(self) -> list:
        """The domain values in cell order."""
        return list(self._values)


class HashedDomainMapper:
    """Many-to-one value → cell mapping via seeded SHA-256.

    Args:
        num_cells: table length ``b``.
        seed: common hash seed dealt by the initiator.
    """

    def __init__(self, num_cells: int, seed: int = 0):
        if num_cells < 1:
            raise DomainError("need at least one cell")
        self.num_cells = num_cells
        self.seed = seed

    @property
    def size(self) -> int:
        return self.num_cells

    def cell_of(self, value) -> int:
        return stable_hash(value, self.seed) % self.num_cells

    def cells_of(self, values: Iterable) -> np.ndarray:
        return np.fromiter((self.cell_of(v) for v in values), dtype=np.int64)

    def collisions(self, values: Iterable) -> dict[int, list]:
        """Cells to which more than one distinct input value hashes."""
        buckets: dict[int, list] = {}
        for v in dict.fromkeys(values):  # preserve order, drop duplicates
            buckets.setdefault(self.cell_of(v), []).append(v)
        return {cell: vs for cell, vs in buckets.items() if len(vs) > 1}


def checked_cells(cells, size: int) -> np.ndarray:
    """``cells`` as an int64 array; raises on any cell outside
    ``[0, size)``, which list indexing would wrap or miss silently."""
    cells = np.asarray(cells, dtype=np.int64)
    if cells.size and (cells.min() < 0 or cells.max() >= size):
        bad = cells[(cells < 0) | (cells >= size)][0]
        raise DomainError(f"cell {bad} out of range [0, {size})")
    return cells
