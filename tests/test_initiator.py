"""Unit tests for the initiator and the knowledge-separated views (§4)."""

import dataclasses
import hashlib

import pytest

from repro.core.params import AnnouncerParams, OwnerParams, ServerParams
from repro.crypto.primes import is_prime
from repro.data.domain import Domain
from repro.entities.initiator import Initiator
from repro.exceptions import ParameterError


@pytest.fixture()
def initiator():
    return Initiator(3, Domain.integer_range("OK", 32), seed=5)


class TestParameterGeneration:
    def test_moduli_structure(self, initiator):
        assert is_prime(initiator.delta)
        assert initiator.delta > initiator.num_owners
        assert is_prime(initiator.group.eta)
        assert (initiator.group.eta - 1) % initiator.delta == 0
        assert initiator.group.eta_prime == 13 * initiator.group.eta

    def test_generator_order(self, initiator):
        g, eta, delta = (initiator.group.g, initiator.group.eta,
                         initiator.delta)
        assert pow(g, delta, eta) == 1
        assert g != 1

    def test_polynomial_degree_exceeds_owner_count(self, initiator):
        assert initiator.polynomial.degree == initiator.num_owners + 1

    def test_extrema_modulus_covers_blinded_values(self, initiator):
        poly = initiator.polynomial
        bound = initiator.value_bound
        assert initiator.extrema_modulus > poly.max_blinded_value(bound)
        assert is_prime(initiator.extrema_modulus)

    def test_m_shares_sum_to_m(self, initiator):
        shares = initiator._m_shares
        assert sum(shares) % initiator.delta == 3

    def test_custom_delta_paper_example(self):
        # delta=5, m=3 gives eta=11 and eta'=143, Example 5.1's numbers.
        init = Initiator(3, Domain.integer_range("x", 3), seed=0, delta=5)
        assert init.group.eta == 11
        assert init.group.eta_prime == 143

    def test_deterministic_for_seed(self):
        d = Domain.integer_range("x", 16)
        a, b = Initiator(3, d, seed=9), Initiator(3, d, seed=9)
        assert a.group.g == b.group.g
        assert a.pf == b.pf
        assert a.polynomial.coefficients == b.polynomial.coefficients

    def test_too_few_owners(self):
        with pytest.raises(ParameterError):
            Initiator(1, Domain.integer_range("x", 4))

    def test_delta_not_prime(self):
        with pytest.raises(ParameterError):
            Initiator(3, Domain.integer_range("x", 4), delta=10)

    def test_delta_not_exceeding_owners(self):
        with pytest.raises(ParameterError):
            Initiator(7, Domain.integer_range("x", 4), delta=7)


class TestKnowledgeSeparation:
    def test_owner_view_withholds_g_and_prg(self, initiator):
        params = initiator.owner_params()
        fields = {f.name for f in dataclasses.fields(OwnerParams)}
        assert "g" not in fields
        assert "prg_seed" not in fields
        assert "pf_s1" not in fields
        assert "pf_s2" not in fields
        assert params.eta == initiator.group.eta  # owners do know eta

    def test_server_view_withholds_eta_and_pf_db(self, initiator):
        params = initiator.server_params(0)
        fields = {f.name for f in dataclasses.fields(ServerParams)}
        assert "eta" not in fields
        assert "pf_db1" not in fields
        assert "pf_db2" not in fields
        assert "polynomial" not in fields  # F(x) is owner knowledge
        # Servers do know g and eta'.
        assert params.group.g == initiator.group.g
        assert params.group.eta_prime == initiator.group.eta_prime

    def test_announcer_view_is_minimal(self, initiator):
        params = initiator.announcer_params()
        fields = {f.name for f in dataclasses.fields(AnnouncerParams)}
        assert fields == {"extrema_modulus", "eta"}
        assert params.extrema_modulus == initiator.extrema_modulus
        assert params.eta is None  # eta withheld by default

    def test_announcer_eta_opt_in(self, initiator):
        params = initiator.announcer_params(include_eta=True)
        assert params.eta == initiator.group.eta

    def test_views_are_frozen(self, initiator):
        params = initiator.owner_params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.delta = 999

    def test_eq1_quadruple_dealt_consistently(self, initiator):
        owner = initiator.owner_params()
        server = initiator.server_params(0)
        left = server.pf_s1.compose(owner.pf_db1)
        right = server.pf_s2.compose(owner.pf_db2)
        assert left == right

    def test_server_m_shares(self, initiator):
        s0 = initiator.server_params(0)
        s1 = initiator.server_params(1)
        s2 = initiator.server_params(2)
        assert (s0.m_share + s1.m_share) % initiator.delta == 3
        assert s2.m_share == 0  # the Shamir-only server never uses one

    def test_pf_owners_sized_to_owner_count(self, initiator):
        assert initiator.owner_params().pf_owners.size == 3
        assert initiator.server_params(0).pf_owners.size == 3


#: SHA-256 of each dealt permutation's little-endian int64 mapping for
#: ``Initiator(5, Domain.integer_range("OK", 262144), seed=7)``.  The
#: compiled and numpy Fisher–Yates must both reproduce these exactly.
_PERMUTATION_DIGESTS = {
    "pf": "1165dbbf5cb396594d01a8d92f1d28514c336c196b2a0afbf9897bbd7b08b3e2",
    "pf_i": "9f9888e683a507a4b7d3638398e01f5894aa91349743f3d05466dc3996d3a967",
    "pf_db1": "3419df5006703e693ebb0fbed3308924025322766889334b7a3d4007b0750a41",
    "pf_db2": "60a6c2322628d1e348e24198c61939814662f75fe2175ce81319de242e32936e",
    "pf_s1": "05ee895545dcdb9795dc555ec25fa46b157c80be18cf56260d2767580ecde914",
    "pf_s2": "5500cb3dab0f929654d6a3af6aaf9726639006c6af390ae2ecfc864859871d45",
}


class TestPermutationDigests:
    @pytest.fixture(scope="class")
    def dealt(self):
        init = Initiator(5, Domain.integer_range("OK", 262144), seed=7)
        return {"pf": init.pf, **init._quadruple}

    @pytest.mark.parametrize("name", sorted(_PERMUTATION_DIGESTS))
    def test_mapping_matches_pinned_digest(self, dealt, name):
        mapping = dealt[name].mapping.astype("<i8")
        assert (hashlib.sha256(mapping.tobytes()).hexdigest()
                == _PERMUTATION_DIGESTS[name])
