"""End-to-end PSI tests against the plaintext oracle (§5.1, §6.6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Domain, PrismSystem, Relation
from repro.core.psi import membership_vector, psi_reference
from repro.exceptions import ProtocolError
from tests.conftest import make_system

DOMAIN16 = list(range(1, 17))


class TestPsiCorrectness:
    def test_paper_example(self, hospital_system):
        result = hospital_system.psi("disease")
        assert result.values == ["Cancer"]
        assert result.membership.tolist() == [True, False, False]

    def test_matches_oracle(self):
        sets = [{1, 2, 5, 9}, {2, 5, 9, 12}, {5, 9, 14}]
        system = make_system(sets, domain_values=DOMAIN16)
        result = system.psi("A")
        assert set(result.values) == psi_reference(system.relations, "A")

    def test_empty_intersection(self):
        system = make_system([{1, 2}, {3, 4}], domain_values=DOMAIN16)
        result = system.psi("A")
        assert result.values == []
        assert not result.membership.any()

    def test_identical_sets(self):
        s = {3, 7, 11}
        system = make_system([s, s, s, s], domain_values=DOMAIN16)
        assert set(system.psi("A").values) == s

    def test_one_empty_owner(self):
        system = make_system([{1, 2}, set()], domain_values=DOMAIN16)
        assert system.psi("A").values == []

    def test_full_domain_intersection(self):
        full = set(DOMAIN16)
        system = make_system([full, full], domain_values=DOMAIN16)
        assert set(system.psi("A").values) == full

    def test_two_owners_minimum(self):
        system = make_system([{1, 5}, {5, 9}], domain_values=DOMAIN16)
        assert system.psi("A").values == [5]

    def test_many_owners(self):
        sets = [set(range(1, 12)) | {15} for _ in range(12)]
        system = make_system(sets, domain_values=DOMAIN16)
        assert set(system.psi("A").values) == set(range(1, 12)) | {15}

    @given(st.lists(st.sets(st.integers(1, 24)), min_size=2, max_size=6),
           st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_oracle_property(self, sets, seed):
        system = make_system(sets, seed=seed, domain_values=list(range(1, 25)))
        expected = set(sets[0])
        for s in sets[1:]:
            expected &= s
        assert set(system.psi("A").values) == expected

    def test_subset_owner_query(self):
        sets = [{1, 2}, {2, 3}, {4, 5}]
        system = make_system(sets, domain_values=DOMAIN16)
        result = system.psi("A", owner_ids=[0, 1])
        assert result.values == [2]

    def test_thread_count_does_not_change_result(self):
        sets = [set(range(1, 13)), set(range(6, 17))]
        base = make_system(sets, domain_values=DOMAIN16).psi("A").values
        threaded = make_system(sets, domain_values=DOMAIN16).psi(
            "A", num_shards=4).values
        assert base == threaded


class TestMultiAttributePsi:
    def test_tuple_intersection(self):
        from repro.data.domain import ProductDomain
        pd = ProductDomain([Domain.integer_range("A", 8),
                            Domain.integer_range("B", 2)])
        r1 = Relation("o1", {"A": [4, 7, 8], "B": [1, 2, 2]})
        r2 = Relation("o2", {"A": [1, 7, 8], "B": [1, 2, 2]})
        system = PrismSystem.build([r1, r2], pd, ("A", "B"))
        result = system.psi(("A", "B"))
        assert sorted(result.values) == [(7, 2), (8, 2)]
        assert set(result.values) == psi_reference([r1, r2], ("A", "B"))

    def test_tuple_no_overlap(self):
        from repro.data.domain import ProductDomain
        pd = ProductDomain([Domain.integer_range("A", 4),
                            Domain.integer_range("B", 2)])
        r1 = Relation("o1", {"A": [1], "B": [1]})
        r2 = Relation("o2", {"A": [1], "B": [2]})
        system = PrismSystem.build([r1, r2], pd, ("A", "B"))
        assert system.psi(("A", "B")).values == []


class TestPsiProperties:
    def test_no_server_to_server_traffic(self):
        system = make_system([{1, 2}, {2, 3}], domain_values=DOMAIN16)
        result = system.psi("A")
        assert result.traffic["server_to_server_bytes"] == 0

    def test_single_round(self):
        system = make_system([{1, 2}, {2, 3}], domain_values=DOMAIN16)
        system.transport.reset()
        result = system.psi("A")
        assert result.traffic["rounds"] == 1

    def test_output_size_independent_of_result(self):
        # Both servers return b values regardless of intersection size.
        big = make_system([set(DOMAIN16), set(DOMAIN16)],
                          domain_values=DOMAIN16)
        small = make_system([{1}, {2}], domain_values=DOMAIN16)
        big.transport.reset()
        small.transport.reset()
        t_big = big.psi("A").traffic["server_to_owner_bytes"]
        t_small = small.psi("A").traffic["server_to_owner_bytes"]
        assert t_big == t_small

    def test_non_member_cells_look_random(self):
        # fop values for absent cells are group elements != 1.
        system = make_system([{1}, {2}], domain_values=DOMAIN16)
        owner = system.owners[0]
        out = [s.psi_round_batch(["A"])[0] for s in system.servers[:2]]
        fop = owner.finalize_psi(out[0], out[1])
        assert (fop != 1).all()

    def test_membership_vector_helper(self):
        domain = Domain.integer_range("A", 4)
        vec = membership_vector([1, 3], domain)
        assert vec.tolist() == [True, False, True, False]

    def test_reference_requires_relations(self):
        with pytest.raises(ProtocolError):
            psi_reference([], "A")

    def test_verified_psi_passes_with_honest_servers(self):
        system = make_system([{1, 2, 9}, {2, 9, 11}], with_verification=True,
                             domain_values=DOMAIN16)
        result = system.psi("A", verify=True)
        assert result.verified
        assert set(result.values) == {2, 9}
