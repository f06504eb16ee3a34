"""Unit tests for domain hashing / value-to-cell mapping."""

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
