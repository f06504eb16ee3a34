"""End-to-end sum/average tests over PSI and PSU (§6.1–6.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Domain, PrismSystem, Relation
from repro.core.aggregate import aggregate_reference
from repro.exceptions import ParameterError, ProtocolError, QueryError


def value_system(rows_per_owner, seed=0, with_verification=False,
                 **kwargs):
    """Owners with (key, v1, v2) rows; domain is keys 1..12."""
    relations = []
    for i, rows in enumerate(rows_per_owner):
        keys = [r[0] for r in rows]
        v1 = [r[1] for r in rows]
        v2 = [r[2] for r in rows]
        relations.append(Relation(f"o{i}", {"k": keys, "v1": v1, "v2": v2}))
    domain = Domain("k", list(range(1, 13)))
    return PrismSystem.build(relations, domain, "k",
                             agg_attributes=("v1", "v2"),
                             with_verification=with_verification, seed=seed,
                             **kwargs)


OWNERS = [
    [(1, 10, 1), (1, 20, 2), (2, 5, 3), (7, 9, 4)],
    [(1, 7, 5), (2, 2, 6), (7, 1, 7), (9, 4, 8)],
    [(1, 3, 9), (7, 6, 10), (11, 8, 11)],
]


class TestPsiSum:
    def test_paper_example(self, hospital_system):
        result = hospital_system.psi_sum("disease", "cost")["cost"]
        assert result.per_value == {"Cancer": 1400}

    def test_matches_oracle(self):
        system = value_system(OWNERS)
        result = system.psi_sum("k", "v1")["v1"]
        common = {1, 7}
        expect = aggregate_reference(system.relations, "k", "v1", common)
        assert result.per_value == expect
        assert result.per_value == {1: 40, 7: 16}

    def test_multiple_attributes_one_query(self):
        system = value_system(OWNERS)
        results = system.psi_sum("k", ["v1", "v2"])
        assert results["v1"].per_value == {1: 40, 7: 16}
        assert results["v2"].per_value == {1: 17, 7: 21}

    def test_empty_intersection(self):
        system = value_system([[(1, 5, 5)], [(2, 5, 5)]])
        assert system.psi_sum("k", "v1")["v1"].per_value == {}

    def test_verified_sum_honest(self):
        system = value_system(OWNERS, with_verification=True)
        result = system.psi_sum("k", "v1", verify=True)["v1"]
        assert result.verified
        assert result.per_value == {1: 40, 7: 16}

    @given(st.integers(0, 400))
    @settings(max_examples=20, deadline=None)
    def test_sum_property(self, seed):
        rng = np.random.default_rng(seed)
        owners = []
        for _ in range(3):
            n = int(rng.integers(1, 8))
            owners.append([
                (int(rng.integers(1, 13)), int(rng.integers(1, 100)),
                 int(rng.integers(1, 100)))
                for _ in range(n)
            ])
        system = value_system(owners, seed=seed)
        common = set(system.psi("k").values)
        expect = aggregate_reference(system.relations, "k", "v1", common)
        assert system.psi_sum("k", "v1")["v1"].per_value == expect


class TestPsiAverage:
    def test_paper_example(self, hospital_system):
        result = hospital_system.psi_average("disease", "cost")["cost"]
        assert result.per_value == {"Cancer": 280.0}

    def test_matches_oracle(self):
        system = value_system(OWNERS)
        result = system.psi_average("k", "v1")["v1"]
        # Key 1: values 10,20,7,3 over 4 tuples; key 7: 9,1,6 over 3.
        assert result.per_value == {1: 40 / 4, 7: 16 / 3}

    def test_average_equals_sum_over_count(self):
        system = value_system(OWNERS)
        sums = system.psi_sum("k", "v2")["v2"].per_value
        avgs = system.psi_average("k", "v2")["v2"].per_value
        counts = {1: 4, 7: 3}
        for k in sums:
            assert avgs[k] == pytest.approx(sums[k] / counts[k])


class TestPsuAggregates:
    def test_paper_psu_sum(self, hospital_system):
        result = hospital_system.psu_sum("disease", "cost")["cost"]
        assert result.per_value == {"Cancer": 1400, "Fever": 120, "Heart": 800}

    def test_paper_psu_average(self, hospital_system):
        result = hospital_system.psu_average("disease", "cost")["cost"]
        assert result.per_value == {
            "Cancer": pytest.approx(1400 / 5),
            "Fever": pytest.approx(120 / 2),
            "Heart": pytest.approx(800 / 2),
        }

    def test_psu_sum_covers_union(self):
        system = value_system(OWNERS)
        result = system.psu_sum("k", "v1")["v1"]
        assert set(result.per_value) == {1, 2, 7, 9, 11}
        assert result.per_value[9] == 4
        assert result.per_value[11] == 8


def refused_before_any_round(system, run, error, match):
    """``run`` raises ``error`` without sending a single message."""
    stats = system.transport.stats
    before = (stats.total_messages, stats.total_bytes)
    with pytest.raises(error, match=match):
        run()
    assert (stats.total_messages, stats.total_bytes) == before


class TestFieldPrime:
    """Shares are uint32 field elements, so the field prime is below 2**32."""

    @pytest.mark.parametrize("prime", [2**40 + 15, 2**61 - 1])
    def test_prime_above_32_bits_is_refused_before_sharing(self, prime):
        with pytest.raises(ParameterError, match="below 2\\*\\*32"):
            value_system(OWNERS, field_prime=prime)

    def test_largest_32_bit_prime_still_sums(self):
        system = value_system(OWNERS, with_verification=True,
                              field_prime=4_294_967_291)
        result = system.psi_sum("k", "v1", verify=True)["v1"]
        assert result.per_value == {1: 40, 7: 16}


class TestValidation:
    def test_unknown_op(self):
        system = value_system(OWNERS)
        sql = " INTERSECT ".join(f"SELECT k, STDDEV(v1) FROM o{i}"
                                 for i in range(3))
        refused_before_any_round(
            system, lambda: system.executor.execute(sql), QueryError,
            "must be aggregates")

    def test_no_attributes(self):
        system = value_system(OWNERS)
        refused_before_any_round(
            system, lambda: system.psi_sum("k", []), ProtocolError,
            "no aggregation attributes")

    def test_two_rounds_recorded(self):
        system = value_system(OWNERS)
        system.transport.reset()
        result = system.psi_sum("k", "v1")["v1"]
        assert result.traffic["rounds"] == 2

    def test_no_server_communication(self):
        system = value_system(OWNERS)
        result = system.psi_sum("k", "v1")["v1"]
        assert result.traffic["server_to_server_bytes"] == 0
