"""End-to-end PSU tests against the plaintext oracle (§7)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.psu import psu_reference
from repro.exceptions import ProtocolError
from tests.conftest import make_system

DOMAIN16 = list(range(1, 17))


class TestPsuCorrectness:
    def test_paper_example(self, hospital_system):
        result = hospital_system.psu("disease")
        assert sorted(result.values) == ["Cancer", "Fever", "Heart"]

    def test_matches_oracle(self):
        sets = [{1, 2}, {2, 5}, {9}]
        system = make_system(sets, domain_values=DOMAIN16)
        assert set(system.psu("A").values) == {1, 2, 5, 9}

    def test_disjoint_sets(self):
        system = make_system([{1}, {5}, {9}], domain_values=DOMAIN16)
        assert set(system.psu("A").values) == {1, 5, 9}

    def test_all_empty(self):
        system = make_system([set(), set()], domain_values=DOMAIN16)
        assert system.psu("A").values == []

    def test_full_domain(self):
        system = make_system([set(DOMAIN16[:8]), set(DOMAIN16[8:])],
                             domain_values=DOMAIN16)
        assert set(system.psu("A").values) == set(DOMAIN16)

    @given(st.lists(st.sets(st.integers(1, 24)), min_size=2, max_size=6),
           st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_oracle_property(self, sets, seed):
        system = make_system(sets, seed=seed, domain_values=list(range(1, 25)))
        expected = set()
        for s in sets:
            expected |= s
        assert set(system.psu("A").values) == expected

    def test_subset_owner_query(self):
        system = make_system([{1}, {2}, {3}], domain_values=DOMAIN16)
        assert set(system.psu("A", owner_ids=[0, 2]).values) == {1, 3}

    def test_repeat_queries_fresh_masks(self):
        # Nonce freshness: two runs give the same membership with
        # different masked vectors.
        system = make_system([{1, 4}, {4, 8}], domain_values=DOMAIN16)
        first = system.psu("A")
        second = system.psu("A")
        assert set(first.values) == set(second.values) == {1, 4, 8}


class TestPsuPrivacyShape:
    def test_single_round(self):
        system = make_system([{1}, {2}], domain_values=DOMAIN16)
        system.transport.reset()
        assert system.psu("A").traffic["rounds"] == 1

    def test_no_server_communication(self):
        system = make_system([{1}, {2}], domain_values=DOMAIN16)
        assert system.psu("A").traffic["server_to_server_bytes"] == 0

    def test_masked_counts_hide_multiplicity(self):
        # A value held by 1 owner and a value held by all owners both
        # surface as "present"; the owner-visible sums must not equal the
        # multiplicities themselves for all cells (masking happened).
        sets = [{1, 2}, {2}, {2}]
        system = make_system(sets, domain_values=DOMAIN16)
        out0 = system.servers[0].psu_round_batch(["A"], [99])[0]
        out1 = system.servers[1].psu_round_batch(["A"], [99])[0]
        delta = system.initiator.delta
        combined = (out0 + out1) % delta
        # Cell of value 2 would be 3 without masking; with masking it is
        # 3 * rand mod delta, which is 3 only with probability ~1/delta.
        cell2 = system.domain.cell_of(2)
        cell1 = system.domain.cell_of(1)
        assert combined[cell2] != 0
        assert combined[cell1] != 0
        assert not (combined[cell1] == 1 and combined[cell2] == 3)

    def test_reference_requires_relations(self):
        with pytest.raises(ProtocolError):
            psu_reference([], "A")
