"""Attribute domains, including product domains for multi-attribute PSI.

A :class:`Domain` fixes the canonical value ↔ cell bijection that every
owner uses to build its χ table (§5.1).  The initiator distributes the
domain once; knowing the domain of ``A_c`` does not reveal which owner has
which value (§4, assumption v).

For PSI over several attributes (§6.6), the χ table ranges over the
cartesian product of the individual domains; :class:`ProductDomain` keeps
the factored representation so cells can be decoded back into value tuples
without materialising the full product.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.crypto.hashing import (
    EnumeratedDomainMapper,
    HashedDomainMapper,
    checked_cells,
)
from repro.exceptions import DomainError

_NOT_INVERTIBLE = ("hashed domains are not invertible; decode against a "
                   "candidate value set (owners use their own values)")


class Domain:
    """An explicit attribute domain with a canonical cell ordering.

    Args:
        attribute: attribute name (e.g. ``"disease"`` or ``"OK"``).
        values: domain values in canonical order.
    """

    #: Whether cells decode back to values (enumerated domains do).
    invertible = True

    def __init__(self, attribute: str, values: Sequence):
        self.attribute = attribute
        self._mapper = EnumeratedDomainMapper(values)

    @classmethod
    def integer_range(cls, attribute: str, size: int, start: int = 1) -> "Domain":
        """Domain ``{start, ..., start + size - 1}`` (the paper's OK domain)."""
        if size < 1:
            raise DomainError("domain size must be positive")
        return cls(attribute, range(start, start + size))

    @property
    def size(self) -> int:
        """``b = |Dom(A_c)|`` — the χ-table length."""
        return self._mapper.size

    def cell_of(self, value) -> int:
        return self._mapper.cell_of(value)

    def value_of(self, cell: int):
        return self._mapper.value_of(cell)

    def cells_of(self, values) -> np.ndarray:
        """Cells of many values as an int64 array (raises like
        :meth:`cell_of` on the first value outside the domain)."""
        return self._mapper.cells_of(values)

    def values_at(self, cells) -> list:
        """The values at many cells, equal to :meth:`value_of` per cell."""
        return self._mapper.values_at(cells)

    def values(self) -> list:
        return self._mapper.values()

    def contains(self, value) -> bool:
        try:
            self._mapper.cell_of(value)
            return True
        except DomainError:
            return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Domain({self.attribute!r}, size={self.size})"


class HashedDomain:
    """An implicit attribute domain mapped by a seeded hash (§5.1's general
    hash-table construction, for domains too large or open to enumerate).

    Cells are not invertible: the PSI result is decoded owner-side against
    the owner's *own* values (the intersection is always a subset of every
    owner's set).  Distinct values may collide into one cell with
    probability ~``n²/(2·num_cells)`` overall; a collision can surface a
    false-positive member.  Size ``num_cells`` generously (or use the
    bucketized protocol) when that matters.

    Args:
        attribute: attribute name.
        num_cells: χ-table length ``b``.
        seed: common hash seed dealt by the initiator (§4).
    """

    invertible = False

    def __init__(self, attribute: str, num_cells: int, seed: int = 0):
        self.attribute = attribute
        self._mapper = HashedDomainMapper(num_cells, seed)

    @property
    def size(self) -> int:
        return self._mapper.size

    def cell_of(self, value) -> int:
        return self._mapper.cell_of(value)

    def cells_of(self, values) -> np.ndarray:
        return self._mapper.cells_of(values)

    def value_of(self, cell: int):
        raise DomainError(_NOT_INVERTIBLE)

    def values_at(self, cells) -> list:
        raise DomainError(_NOT_INVERTIBLE)

    def contains(self, value) -> bool:
        """Every hashable value maps somewhere; membership is not checked."""
        try:
            self._mapper.cell_of(value)
            return True
        except DomainError:
            return False

    def collisions(self, values) -> dict[int, list]:
        """Cells where multiple of the given values collide."""
        return self._mapper.collisions(values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashedDomain({self.attribute!r}, size={self.size})"


class ProductDomain:
    """Cartesian product of attribute domains (multi-attribute PSI, §6.6).

    Cell numbering is row-major over the factor order: the tuple
    ``(v_1, ..., v_k)`` maps to ``sum_i cell_i * stride_i``.

    Args:
        factors: the component :class:`Domain` objects, in attribute order.
    """

    invertible = True

    def __init__(self, factors: Sequence[Domain]):
        if not factors:
            raise DomainError("product domain needs at least one factor")
        self.factors = list(factors)
        self.attribute = "*".join(d.attribute for d in self.factors)
        self._strides = []
        stride = 1
        for d in reversed(self.factors):
            self._strides.append(stride)
            stride *= d.size
        self._strides.reverse()
        self._size = stride

    @property
    def size(self) -> int:
        return self._size

    def _check_arity(self, value_tuple) -> None:
        try:
            arity = len(value_tuple)
        except TypeError:
            arity = None
        if arity != len(self.factors):
            raise DomainError(f"expected a {len(self.factors)}-tuple, got "
                              f"{value_tuple!r}")

    def cell_of(self, value_tuple) -> int:
        """Cell of a value tuple; raises on arity or membership mismatch."""
        self._check_arity(value_tuple)
        return sum(d.cell_of(v) * s
                   for d, v, s in zip(self.factors, value_tuple, self._strides))

    def value_of(self, cell: int) -> tuple:
        """Decode a cell index back into its value tuple."""
        if not 0 <= cell < self._size:
            raise DomainError(f"cell {cell} out of range [0, {self._size})")
        parts = []
        for d, s in zip(self.factors, self._strides):
            idx, cell = divmod(cell, s)
            parts.append(d.value_of(idx))
        return tuple(parts)

    def cells_of(self, tuples) -> np.ndarray:
        """Cells of many value tuples: the factors' cell arrays, strided."""
        tuples = list(tuples)
        for t in tuples:
            self._check_arity(t)
        cells = np.zeros(len(tuples), dtype=np.int64)
        for d, column, s in zip(self.factors, zip(*tuples), self._strides):
            cells += d.cells_of(column) * s
        return cells

    def values_at(self, cells) -> list:
        """Decode many cells back into value tuples."""
        cells = checked_cells(cells, self._size)
        parts = []
        for d, s in zip(self.factors, self._strides):
            parts.append(d.values_at(cells // s))
            cells = cells % s
        return list(zip(*parts))

    def contains(self, value_tuple) -> bool:
        try:
            self.cell_of(value_tuple)
            return True
        except DomainError:
            return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProductDomain({self.attribute!r}, size={self.size})"
