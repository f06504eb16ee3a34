"""End-to-end max/min/median tests (§6.3–6.4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Domain, PrismSystem, Relation
from repro.core.extrema import extrema_reference, median_reference
from repro.core.interactive import ExtremaProgram
from repro.exceptions import ProtocolError


def value_system(rows_per_owner, seed=0, **kwargs):
    relations = []
    for i, rows in enumerate(rows_per_owner):
        relations.append(Relation(f"o{i}", {
            "k": [r[0] for r in rows],
            "v": [r[1] for r in rows],
        }))
    domain = Domain("k", list(range(1, 9)))
    return PrismSystem.build(relations, domain, "k", agg_attributes=("v",),
                             seed=seed, **kwargs)


OWNERS = [
    [(1, 10), (1, 25), (2, 5)],
    [(1, 40), (3, 2)],
    [(1, 40), (1, 7), (5, 9)],
]


class TestMax:
    def test_paper_example_value_and_holders(self, hospital_system):
        result = hospital_system.psi_max("disease", "age")
        assert result.per_value == {"Cancer": 8}
        # Hospitals 2 and 3 (owners 1 and 2) hold age 8.
        assert result.holders == {"Cancer": [1, 2]}

    def test_matches_oracle(self):
        system = value_system(OWNERS)
        result = system.psi_max("k", "v")
        expect = extrema_reference(system.relations, "k", "v", {1}, "max")
        assert result.per_value == expect == {1: 40}

    def test_holders_multiple(self):
        system = value_system(OWNERS)
        assert system.psi_max("k", "v").holders == {1: [1, 2]}

    def test_holders_single(self):
        owners = [[(1, 10)], [(1, 99)], [(1, 20)]]
        system = value_system(owners)
        result = system.psi_max("k", "v")
        assert result.per_value == {1: 99}
        assert result.holders == {1: [1]}

    def test_without_identity_round(self):
        system = value_system(OWNERS)
        result = system.psi_max("k", "v", reveal_holders=False)
        assert result.per_value == {1: 40}
        # Only the announcer-reported single holder is known.
        assert len(result.holders[1]) == 1
        assert result.holders[1][0] in (1, 2)

    def test_equal_values_everywhere(self):
        owners = [[(4, 7)], [(4, 7)], [(4, 7)]]
        system = value_system(owners)
        result = system.psi_max("k", "v")
        assert result.per_value == {4: 7}
        assert result.holders == {4: [0, 1, 2]}

    def test_multiple_common_values(self):
        owners = [[(1, 3), (2, 8)], [(1, 5), (2, 6)]]
        system = value_system(owners)
        result = system.psi_max("k", "v")
        assert result.per_value == {1: 5, 2: 8}
        assert result.holders == {1: [1], 2: [0]}

    @given(st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_max_property(self, seed):
        rng = np.random.default_rng(seed)
        owners = []
        for _ in range(int(rng.integers(2, 5))):
            rows = [(1, int(rng.integers(1, 5000)))
                    for _ in range(int(rng.integers(1, 5)))]
            owners.append(rows)
        system = value_system(owners, seed=seed)
        expect = extrema_reference(system.relations, "k", "v", {1}, "max")
        result = system.psi_max("k", "v")
        assert result.per_value == expect
        true_holders = [i for i, rows in enumerate(owners)
                        if max(v for _, v in rows) == expect[1]]
        assert result.holders[1] == true_holders


class TestMin:
    def test_paper_example(self, hospital_system):
        result = hospital_system.psi_min("disease", "age")
        assert result.per_value == {"Cancer": 4}
        # Hospitals 1 and 3 both have a 4-year-old cancer patient.
        assert result.holders == {"Cancer": [0, 2]}

    def test_matches_oracle(self):
        system = value_system(OWNERS)
        expect = extrema_reference(system.relations, "k", "v", {1}, "min")
        assert system.psi_min("k", "v").per_value == expect == {1: 7}

    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_min_property(self, seed):
        rng = np.random.default_rng(seed)
        owners = [[(1, int(rng.integers(1, 1000)))
                   for _ in range(int(rng.integers(1, 4)))]
                  for _ in range(int(rng.integers(2, 5)))]
        system = value_system(owners, seed=seed)
        expect = extrema_reference(system.relations, "k", "v", {1}, "min")
        assert system.psi_min("k", "v").per_value == expect


class TestMedian:
    def test_paper_example(self, hospital_system):
        # Per-owner Cancer cost totals: 300, 100, 1000 -> median 300.
        result = hospital_system.psi_median("disease", "cost")
        assert result.per_value == {"Cancer": 300}

    def test_odd_owner_count(self):
        owners = [[(1, 10)], [(1, 30)], [(1, 20)]]
        system = value_system(owners)
        assert system.psi_median("k", "v").per_value == {1: 20}

    def test_even_owner_count_averages(self):
        owners = [[(1, 10)], [(1, 30)], [(1, 20)], [(1, 40)]]
        system = value_system(owners)
        assert system.psi_median("k", "v").per_value == {1: 25.0}

    def test_matches_oracle(self):
        system = value_system(OWNERS)
        expect = median_reference(system.relations, "k", "v", {1})
        assert system.psi_median("k", "v").per_value == expect

    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_median_property(self, seed):
        rng = np.random.default_rng(seed)
        owners = [[(1, int(rng.integers(1, 500)))
                   for _ in range(int(rng.integers(1, 4)))]
                  for _ in range(int(rng.integers(2, 6)))]
        system = value_system(owners, seed=seed)
        expect = median_reference(system.relations, "k", "v", {1})
        assert system.psi_median("k", "v").per_value == expect


class TestExtremaProtocolShape:
    def test_unknown_kind_rejected(self):
        system = value_system(OWNERS)
        with pytest.raises(ProtocolError):
            ExtremaProgram(system, "k", "v", kind="mode")

    def test_announcer_never_talks_to_owners(self):
        from repro.network.message import Role
        system = value_system(OWNERS)
        # Per-message records are opt-in (bounded ring) since the
        # TrafficStats memory fix; this topology check needs them.
        system.transport.reset(retain_messages=100_000)
        system.psi_max("k", "v")
        assert system.transport.stats.messages, "retention was enabled"
        for msg in system.transport.stats.messages:
            assert not (msg.sender.role is Role.ANNOUNCER
                        and msg.receiver.role is Role.OWNER)
            assert not (msg.sender.role is Role.OWNER
                        and msg.receiver.role is Role.ANNOUNCER)

    def test_precomputed_common_values(self):
        system = value_system(OWNERS)
        result = system.psi_max("k", "v", common_values=[1])
        assert result.per_value == {1: 40}

    def test_extrema_modulus_bound_enforced(self):
        # Values beyond value_bound must be rejected, not silently wrapped.
        owners = [[(1, 10)], [(1, 20)]]
        system = value_system(owners, value_bound=15)
        with pytest.raises(Exception):
            system.psi_max("k", "v")
