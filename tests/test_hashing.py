"""Unit tests for domain hashing / value-to-cell mapping."""

import re

import numpy as np
import pytest

from repro.crypto.hashing import (
    EnumeratedDomainMapper,
    HashedDomainMapper,
    stable_hash,
)
from repro.exceptions import DomainError


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("cancer") == stable_hash("cancer")

    def test_seed_sensitivity(self):
        assert stable_hash("cancer", 0) != stable_hash("cancer", 1)

    def test_type_separation(self):
        # The string "1" and the integer 1 must not collide by construction.
        assert stable_hash("1") != stable_hash(1)
        assert stable_hash(True) != stable_hash(1)

    def test_supported_types(self):
        for v in ("s", b"b", 5, True):
            assert isinstance(stable_hash(v), int)

    def test_unsupported_type(self):
        with pytest.raises(DomainError):
            stable_hash(3.14)


class TestEnumeratedMapper:
    def test_bijection(self):
        mapper = EnumeratedDomainMapper(["a", "b", "c"])
        for i, v in enumerate(["a", "b", "c"]):
            assert mapper.cell_of(v) == i
            assert mapper.value_of(i) == v

    def test_cells_of(self):
        mapper = EnumeratedDomainMapper([10, 20, 30])
        assert mapper.cells_of([30, 10]).tolist() == [2, 0]

    def test_size_and_values(self):
        mapper = EnumeratedDomainMapper(range(5))
        assert mapper.size == 5
        assert mapper.values() == [0, 1, 2, 3, 4]

    def test_unknown_value(self):
        mapper = EnumeratedDomainMapper(["a"])
        with pytest.raises(DomainError):
            mapper.cell_of("z")

    def test_cell_out_of_range(self):
        mapper = EnumeratedDomainMapper(["a"])
        with pytest.raises(DomainError):
            mapper.value_of(1)
        with pytest.raises(DomainError):
            mapper.value_of(-1)

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            EnumeratedDomainMapper(["a", "a"])


class TestHashedMapper:
    def test_within_range_and_deterministic(self):
        mapper = HashedDomainMapper(100, seed=1)
        cells = mapper.cells_of(range(1000)).tolist()
        assert all(0 <= c < 100 for c in cells)
        assert cells == HashedDomainMapper(100, seed=1).cells_of(
            range(1000)).tolist()

    def test_seed_changes_mapping(self):
        a = HashedDomainMapper(1000, seed=1).cells_of(range(50)).tolist()
        b = HashedDomainMapper(1000, seed=2).cells_of(range(50)).tolist()
        assert a != b

    def test_collisions_reported(self):
        mapper = HashedDomainMapper(4, seed=0)
        collisions = mapper.collisions(range(100))
        assert collisions  # pigeonhole guarantees some
        for cell, values in collisions.items():
            assert len(values) > 1
            assert all(mapper.cell_of(v) == cell for v in values)

    def test_no_collisions_for_singleton(self):
        mapper = HashedDomainMapper(64, seed=0)
        assert mapper.collisions([1]) == {}

    def test_zero_cells_rejected(self):
        with pytest.raises(DomainError):
            HashedDomainMapper(0)


class TestRangeMapperMatchesList:
    """A unit-step range domain is mapped by arithmetic; it must answer
    every lookup exactly as the same domain given as a list."""

    RANGE = range(-3, 61)

    @pytest.mark.parametrize("value", [
        -3, 37, 60,                         # ints, both ends included
        True, False,                        # bools: the cells of 1 and 0
        -3.0, 40.0, 40.5, float("nan"), float("inf"),  # floats
        np.int64(9), np.uint8(12), np.int32(60), np.float64(6.0),
        -4, 61, -50, 2**80,                 # out of range
        "5", "x", b"5", None,               # strings and others
    ])
    def test_cell_of(self, value):
        fast = EnumeratedDomainMapper(self.RANGE)
        slow = EnumeratedDomainMapper(list(self.RANGE))
        try:
            expected = slow.cell_of(value)
        except DomainError as exc:
            with pytest.raises(DomainError, match=re.escape(str(exc))):
                fast.cell_of(value)
            with pytest.raises(DomainError):
                fast.cells_of([-3, value])
        else:
            assert fast.cell_of(value) == expected
            assert type(fast.cell_of(value)) is int
            assert fast.cells_of([value, 6]).tolist() == [expected, 9]

    @pytest.mark.parametrize("values", [
        [-3, 6, 60],
        np.arange(-3, 61, dtype=np.int64),
        np.arange(0, 61, dtype=np.uint8),
        [True, 7.0, np.int16(8)],
    ])
    def test_cells_of(self, values):
        fast = EnumeratedDomainMapper(self.RANGE).cells_of(values)
        slow = EnumeratedDomainMapper(list(self.RANGE)).cells_of(values)
        assert fast.dtype == slow.dtype == np.int64
        assert fast.tolist() == slow.tolist()

    @pytest.mark.parametrize("values", [[-4], np.array([61]), ["5"],
                                        [5, 5.5], np.array([-10, 5])])
    def test_cells_of_outside_raises(self, values):
        for mapper in (EnumeratedDomainMapper(self.RANGE),
                       EnumeratedDomainMapper(list(self.RANGE))):
            with pytest.raises(DomainError):
                mapper.cells_of(values)

    @pytest.mark.parametrize("cells", [[0], [63, 0, 7], np.arange(64),
                                       np.array([3], dtype=np.uint16)])
    def test_value_of_and_values_at(self, cells):
        fast = EnumeratedDomainMapper(self.RANGE)
        slow = EnumeratedDomainMapper(list(self.RANGE))
        assert fast.values_at(cells) == slow.values_at(cells)
        for cell in list(cells):
            assert fast.value_of(cell) == slow.value_of(cell)
            assert type(fast.value_of(cell)) is int

    @pytest.mark.parametrize("cell", [-1, 64, 10**9])
    def test_cells_outside_raise(self, cell):
        for mapper in (EnumeratedDomainMapper(self.RANGE),
                       EnumeratedDomainMapper(list(self.RANGE))):
            with pytest.raises(DomainError):
                mapper.value_of(cell)
            with pytest.raises(DomainError):
                mapper.values_at([cell])

    def test_values_and_size(self):
        fast = EnumeratedDomainMapper(self.RANGE)
        assert fast.values() == list(self.RANGE)
        assert type(fast.values()) is list
        assert fast.size == 64
