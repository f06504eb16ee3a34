"""Tests for PSU verification (the complement-stream consistency check)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Domain, PrismSystem, Relation, VerificationError
from repro.entities.adversary import InjectFakeServer, SkipCellsServer
from repro.entities.server import PrismServer

DOMAIN = list(range(1, 25))


def psu_system(server_factories=None, sets=({1, 2, 9}, {2, 9, 17}), seed=3):
    relations = [Relation(f"o{i}", {"k": sorted(s)})
                 for i, s in enumerate(sets)]
    return PrismSystem.build(relations, Domain("k", DOMAIN), "k",
                             with_verification=True, seed=seed,
                             server_factories=server_factories or {})


class _TamperPsuServer(PrismServer):
    """Shifts every PSU output by 1 mod delta.

    A single server cannot *erase* a union member (it would need the other
    server's share to zero the sum), but shifting fabricates membership
    for every absent cell — the realistic single-server PSU attack.
    """

    def tamper(self, kind, column, row):
        if kind != "psu":
            return row
        return np.mod(row + 1, self.params.delta)


class TestHonest:
    def test_verified_psu_passes(self):
        system = psu_system()
        result = system.psu("k", verify=True)
        assert result.verified
        assert set(result.values) == {1, 2, 9, 17}

    @given(st.lists(st.sets(st.integers(1, 24)), min_size=2, max_size=5),
           st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_verified_psu_matches_oracle(self, sets, seed):
        system = psu_system(sets=sets, seed=seed)
        expected = set()
        for s in sets:
            expected |= s
        result = system.psu("k", verify=True)
        assert result.verified
        assert set(result.values) == expected


class TestTampering:
    def test_fabricated_members_detected(self):
        # The shift turns every absent cell into a fake union member;
        # the complement stream disagrees there.
        system = psu_system({0: _TamperPsuServer})
        with pytest.raises(VerificationError) as excinfo:
            system.psu("k", verify=True)
        assert excinfo.value.failed_cells

    def test_skipcells_complement_detected(self):
        system = psu_system({1: SkipCellsServer})
        with pytest.raises(VerificationError):
            system.psu("k", verify=True)

    def test_injected_complement_detected(self):
        factory = lambda i, p: InjectFakeServer(i, p, cells=(0, 3))
        system = psu_system({0: factory})
        with pytest.raises(VerificationError):
            system.psu("k", verify=True)

    def test_unverified_psu_misses_tampering(self):
        system = psu_system({0: _TamperPsuServer})
        result = system.psu("k")  # silently wrong: fake members appear
        assert len(result.values) > 4  # truth is exactly {1, 2, 9, 17}
