"""Unit tests for attribute domains and product domains."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.domain import Domain, ProductDomain
from repro.exceptions import DomainError


class TestDomain:
    def test_integer_range(self):
        d = Domain.integer_range("OK", 10)
        assert d.size == 10
        assert d.cell_of(1) == 0
        assert d.value_of(9) == 10

    def test_integer_range_start(self):
        d = Domain.integer_range("OK", 5, start=100)
        assert d.values() == [100, 101, 102, 103, 104]

    def test_roundtrip(self):
        d = Domain("disease", ["Cancer", "Fever", "Heart"])
        for v in d.values():
            assert d.value_of(d.cell_of(v)) == v

    def test_cells_of(self):
        d = Domain("x", ["a", "b", "c"])
        assert d.cells_of(["c", "a"]).tolist() == [2, 0]

    def test_contains(self):
        d = Domain("x", ["a"])
        assert d.contains("a")
        assert not d.contains("b")

    def test_unknown_value(self):
        with pytest.raises(DomainError):
            Domain("x", ["a"]).cell_of("b")

    def test_empty_size_rejected(self):
        with pytest.raises(DomainError):
            Domain.integer_range("x", 0)


class TestProductDomain:
    @pytest.fixture()
    def product(self):
        return ProductDomain([
            Domain.integer_range("A", 8),
            Domain.integer_range("B", 2),
        ])

    def test_size(self, product):
        assert product.size == 16  # the paper's Example 6.6.1 setup

    def test_attribute_name(self, product):
        assert product.attribute == "A*B"

    def test_roundtrip(self, product):
        for cell in range(product.size):
            assert product.cell_of(product.value_of(cell)) == cell

    @given(st.integers(1, 8), st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_tuple_roundtrip(self, a, b):
        product = ProductDomain([
            Domain.integer_range("A", 8),
            Domain.integer_range("B", 2),
        ])
        cell = product.cell_of((a, b))
        assert 0 <= cell < 16
        assert product.value_of(cell) == (a, b)

    def test_distinct_tuples_distinct_cells(self, product):
        cells = {product.cell_of((a, b))
                 for a in range(1, 9) for b in range(1, 3)}
        assert len(cells) == 16

    def test_contains(self, product):
        assert product.contains((1, 1))
        assert not product.contains((9, 1))
        assert not product.contains((1, 3))

    def test_arity_mismatch(self, product):
        with pytest.raises(DomainError):
            product.cell_of((1,))

    def test_cell_out_of_range(self, product):
        with pytest.raises(DomainError):
            product.value_of(16)

    def test_empty_factors_rejected(self):
        with pytest.raises(DomainError):
            ProductDomain([])

    def test_three_factors(self):
        p = ProductDomain([Domain.integer_range(n, s)
                           for n, s in (("A", 3), ("B", 4), ("C", 5))])
        assert p.size == 60
        assert p.value_of(p.cell_of((2, 3, 4))) == (2, 3, 4)
