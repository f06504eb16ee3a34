"""End-to-end count-query tests (§6.5) and their position-hiding shape."""

import numpy as np
from hypothesis import given, settings, strategies as st

from tests.conftest import make_system

DOMAIN16 = list(range(1, 17))


class TestPsiCount:
    def test_paper_example(self, hospital_system):
        assert hospital_system.psi_count("disease").count == 1

    def test_counts_match_psi(self):
        sets = [{1, 2, 5, 9}, {2, 5, 9}, {5, 9, 12}]
        system = make_system(sets, domain_values=DOMAIN16)
        assert system.psi_count("A").count == len(system.psi("A").values)

    def test_zero_count(self):
        system = make_system([{1}, {2}], domain_values=DOMAIN16)
        assert system.psi_count("A").count == 0

    def test_full_count(self):
        full = set(DOMAIN16)
        system = make_system([full, full], domain_values=DOMAIN16)
        assert system.psi_count("A").count == 16

    @given(st.lists(st.sets(st.integers(1, 20)), min_size=2, max_size=5),
           st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_count_property(self, sets, seed):
        system = make_system(sets, seed=seed, domain_values=list(range(1, 21)))
        expected = set(sets[0])
        for s in sets[1:]:
            expected &= s
        assert system.psi_count("A").count == len(expected)

    def test_verified_count_honest(self):
        system = make_system([{1, 2, 9}, {2, 9}], with_verification=True,
                             domain_values=DOMAIN16)
        assert system.psi_count("A", verify=True).count == 2

    def test_positions_are_hidden(self):
        # The returned fop vector is PF_s1-permuted: the position of the
        # single one must (generically) differ from the true cell.
        sets = [{5}, {5}]
        system = make_system(sets, domain_values=DOMAIN16)
        outputs = [s.psi_round_batch(["A"], permute=["pf_s1"])[0]
                   for s in system.servers[:2]]
        owner = system.owners[0]
        fop = owner.finalize_psi(outputs[0], outputs[1])
        permuted_position = int(np.nonzero(fop == 1)[0][0])
        true_cell = system.domain.cell_of(5)
        pf_s1 = system.servers[0].params.pf_s1
        assert permuted_position == pf_s1.apply_index(true_cell)


class TestPsuCount:
    def test_paper_example(self, hospital_system):
        assert hospital_system.psu_count("disease").count == 3

    def test_matches_psu(self):
        sets = [{1, 2}, {5, 9}, {2, 9}]
        system = make_system(sets, domain_values=DOMAIN16)
        assert system.psu_count("A").count == len(system.psu("A").values)

    def test_zero(self):
        system = make_system([set(), set()], domain_values=DOMAIN16)
        assert system.psu_count("A").count == 0

    @given(st.lists(st.sets(st.integers(1, 20)), min_size=2, max_size=5),
           st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_count_property(self, sets, seed):
        system = make_system(sets, seed=seed, domain_values=list(range(1, 21)))
        expected = set()
        for s in sets:
            expected |= s
        assert system.psu_count("A").count == len(expected)
