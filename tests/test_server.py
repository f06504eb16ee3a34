"""Unit tests for the server kernels (Eq. 3, 7, 11, 18 and threading)."""

import numpy as np
import pytest

from repro.core.sharding import shard_bounds
from repro.data.domain import Domain
from repro.data.storage import ShareKind
from repro.data.relation import Relation
from repro.entities.initiator import Initiator
from repro.entities.owner import DBOwner
from repro.entities.server import PrismServer
from repro.exceptions import ProtocolError


def deploy(sets, seed=0, num_owners=None, domain_size=None):
    values = sorted({v for s in sets for v in s})
    domain = Domain("A", values if domain_size is None
                    else range(1, domain_size + 1))
    m = num_owners or len(sets)
    initiator = Initiator(m, domain, seed=seed)
    owners = [DBOwner(i, initiator.owner_params(),
                      Relation(f"o{i}", {"A": sorted(s)}), seed=seed)
              for i, s in enumerate(sets)]
    servers = [PrismServer(i, initiator.server_params(i)) for i in range(3)]
    for owner in owners:
        owner.outsource(servers, "A", with_verification=True)
    return initiator, owners, servers


class TestChunking:
    def test_chunk_bounds_cover_range(self):
        for n in (0, 1, 7, 100):
            for chunks in (1, 3, 8):
                bounds = shard_bounds(n, chunks)
                covered = []
                for lo, hi in bounds:
                    covered.extend(range(lo, hi))
                assert covered == list(range(n))

    def test_no_more_chunks_than_elements(self):
        assert len(shard_bounds(3, 10)) <= 3


class TestPsiKernel:
    def test_matches_equation3(self):
        # Verify the kernel against a direct computation of Eq. 3.
        initiator, owners, servers = deploy(
            [{1, 2, 5}, {2, 5, 7}, {2, 7}], seed=4)
        delta = initiator.delta
        for server in servers[:2]:
            shares = server.fetch_additive("A")
            m_share = server.params.m_share
            expect = []
            for i in range(len(shares[0])):
                total = sum(int(s[i]) for s in shares) % delta
                e = (total - m_share) % delta
                expect.append(pow(initiator.group.g, e,
                                  initiator.group.eta_prime))
            out = server.psi_round_batch(["A"])[0]
            assert out.tolist() == expect

    def test_thread_counts_agree(self):
        _, _, servers = deploy([set(range(1, 40)), set(range(20, 60))])
        base = servers[0].psi_round_batch(["A"])[0]
        for threads in (2, 3, 8):
            assert np.array_equal(
                servers[0].psi_round_batch(["A"], num_shards=threads)[0],
                base)

    def test_subset_m_shares_sum(self):
        initiator, _, servers = deploy([{1, 2}, {2, 3}, {3, 4}])
        delta = initiator.delta
        s0 = servers[0]._subset_m_share(2)
        s1 = servers[1]._subset_m_share(2)
        assert (s0 + s1) % delta == 2

    def test_output_in_eta_prime_range(self):
        _, _, servers = deploy([{1, 2}, {2, 3}])
        out = servers[0].psi_round_batch(["A"])[0]
        assert out.min() >= 0
        assert out.max() < servers[0].params.group.eta_prime


class TestOtherKernels:
    def test_verification_round_no_m_subtraction(self):
        initiator, _, servers = deploy([{1}, {1}])
        server = servers[0]
        shares = server.fetch_additive("vA")
        delta = initiator.delta
        expect = [pow(initiator.group.g,
                      sum(int(s[i]) for s in shares) % delta,
                      initiator.group.eta_prime)
                  for i in range(len(shares[0]))]
        out = server.psi_round_batch(["vA"], subtract_m=[False])[0]
        assert out.tolist() == expect

    def test_psu_masks_agree_across_servers(self):
        initiator, _, servers = deploy([{1, 3}, {3, 5}])
        delta = initiator.delta
        out0 = servers[0].psu_round_batch(["A"], [5])[0]
        out1 = servers[1].psu_round_batch(["A"], [5])[0]
        member = (out0 + out1) % delta != 0
        assert member.tolist() == [True, True, True]  # domain {1,3,5}

    def test_psu_nonce_changes_masks(self):
        _, _, servers = deploy([{1, 3}, {3, 5}])
        a, b = servers[0].psu_round_batch(["A", "A"], [1, 2])
        assert not np.array_equal(a, b)

    def test_count_round_is_permuted_psi(self):
        _, _, servers = deploy([{1, 2, 3}, {2, 3, 4}])
        server = servers[0]
        psi = server.psi_round_batch(["A"])[0]
        count = server.psi_round_batch(["A"], permute=["pf_s1"])[0]
        assert np.array_equal(count, server.params.pf_s1.apply(psi))
        proof = server.psi_round_batch(["A"], permute=["pf_s2"])[0]
        assert np.array_equal(proof, server.params.pf_s2.apply(psi))

    def test_indicator_round_runs_each_sweep_as_its_kernel(self):
        _, _, servers = deploy([{1, 2, 3}, {2, 3, 4}])
        server = servers[0]
        outs = server.indicator_round([
            {"family": "psi", "columns": ["A", "A"],
             "subtract_m": [True, False], "permute": [None, "pf_s2"]},
            {"family": "psu", "columns": ["A"], "nonces": [7],
             "permute": ["pf_s1"], "owner_ids": None},
        ])
        assert len(outs) == 2
        assert np.array_equal(outs[0], server.psi_round_batch(
            ["A", "A"], subtract_m=[True, False], permute=[None, "pf_s2"]))
        assert np.array_equal(outs[1], server.psu_round_batch(
            ["A"], [7], permute=["pf_s1"]))

    @pytest.mark.parametrize("sweeps,match", [
        ([], "list of sweeps"),
        ([{"family": "count", "columns": ["A"]}], "family"),
        (["A"], "family"),
        ([{"family": "psi"}], "at least one column"),
        ([{"family": "psu", "columns": ["A"]}], "query_nonces must match"),
        ([{"family": "psi", "columns": ["A"], "subtract_m": [True, True]}],
         "subtract_m flags must match"),
        ([{"family": "psu", "columns": ["A"], "nonces": [1, 2]}],
         "query_nonces must match"),
        ([{"family": "psi", "columns": ["A"], "permute": [None, None]}],
         "permute flags must match"),
        ([{"family": "psi", "columns": ["A"], "permute": [True]}],
         "unknown row permutation"),
        ([{"family": "psu", "columns": ["A"], "nonces": [1],
           "permute": ["pf"]}], "unknown row permutation"),
    ])
    def test_malformed_indicator_round_rejected(self, sweeps, match):
        _, _, servers = deploy([{1, 2, 3}, {2, 3, 4}])
        with pytest.raises(ProtocolError, match=match):
            servers[0].indicator_round(sweeps)

    def test_aggregate_round_length_mismatch(self):
        _, _, servers = deploy([{1}, {1}])
        server = servers[0]
        for owner in range(2):
            server.receive_shares(owner, "x", np.zeros(1, dtype=np.uint32),
                                  ShareKind.SHAMIR)
        with pytest.raises(ProtocolError, match="does not match column"):
            server.aggregate_round_batch(["x"],
                                         np.zeros((1, 5), dtype=np.uint32))


class TestExtremaRounds:
    def test_extrema_collect_permutes(self):
        initiator, _, servers = deploy([{1}, {1}, {1}])
        shares = {0: 100, 1: 200, 2: 300}
        out = servers[0].extrema_collect(shares)
        assert sorted(out) == [100, 200, 300]
        pf = servers[0].params.pf_owners
        assert out[pf.apply_index(0)] == 100

    def test_extrema_collect_missing_owner(self):
        _, _, servers = deploy([{1}, {1}, {1}])
        with pytest.raises(ProtocolError):
            servers[0].extrema_collect({0: 1, 1: 2})

    def test_fpos_round_order(self):
        _, _, servers = deploy([{1}, {1}, {1}])
        assert servers[0].fpos_round({2: 30, 0: 10, 1: 20}) == [10, 20, 30]

    def test_fpos_round_missing_owner(self):
        _, _, servers = deploy([{1}, {1}])
        with pytest.raises(ProtocolError):
            servers[0].fpos_round({0: 1})

    def test_forward_passthrough(self):
        _, _, servers = deploy([{1}, {1}])
        assert servers[0].forward("payload") == "payload"


class TestReceiveShares:
    """Phase 1 admits a column only as residues of its modulus, stored at
    the width of that modulus — never truncated, wrapped or widened."""

    def _server(self):
        _, _, servers = deploy([{1}, {1}])
        return servers[0]

    def test_columns_stored_at_the_width_of_their_modulus(self):
        server = self._server()
        assert server.store.get(0, "A").values.dtype == np.uint8
        server.receive_shares(0, "S", np.asarray([0, 7, 2**31 - 2]),
                              ShareKind.SHAMIR)
        stored = server.store.get(0, "S").values
        assert stored.dtype == np.uint32
        assert stored.tolist() == [0, 7, 2**31 - 2]

    def test_non_integer_shares_raise_naming_owner_and_column(self):
        server = self._server()
        with pytest.raises(ProtocolError, match=r"owner 0.*'OK'.*float64"):
            server.receive_shares(0, "OK", np.array([0.9, 300.5]),
                                  ShareKind.ADDITIVE)
        assert not server.store.has(0, "OK")

    @pytest.mark.parametrize("values,kind", [
        ([0, 101], ShareKind.ADDITIVE),     # δ = 101
        ([-1, 5], ShareKind.ADDITIVE),
        ([0, 2**31 - 1], ShareKind.SHAMIR),  # the field prime itself
        ([2**40], ShareKind.SHAMIR),
    ])
    def test_out_of_range_shares_raise(self, values, kind):
        server = self._server()
        with pytest.raises(ProtocolError, match=r"owner 3.*'X'.*outside"):
            server.receive_shares(3, "X", np.asarray(values), kind)
        assert not server.store.has(3, "X")
