"""Unit tests for the server kernels (Eq. 3, 7, 11, 18 and threading)."""

import sys
import threading

import numpy as np
import pytest

from repro import PrismSystem, kernels
from repro.analysis.access import recording_factories, traces_identical
from repro.core.sharding import shard_bounds
from repro.data.domain import Domain
from repro.data.storage import ServerStore, ShareKind
from repro.data.relation import Relation
from repro.entities.initiator import Initiator
from repro.entities.owner import DBOwner
from repro.entities.server import (
    PrismServer,
    agg_sweep,
    psi_sweep,
    psu_sweep,
    sum_sweep,
)
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


# -- the owner-summed memo ------------------------------------------------------

MEMO_B = 1200  # above the compiled tier's crossover, so the C spans engage


@pytest.fixture(params=["c", "numpy"])
def tier(request):
    """Run one test on the compiled tier, then on the numpy twins."""
    if request.param == "c" and not kernels.available():
        pytest.skip("compiled kernel tier unavailable (no C toolchain)")
    mode = "c" if request.param == "c" else "off"
    assert kernels.configure(mode) == request.param
    yield request.param
    kernels.configure(None)


def memo_server(delta, num_shards=1, seed=5):
    """One server holding three owners' random residues: additive
    columns ``A`` and ``vA`` and the Shamir column ``X``."""
    initiator = Initiator(3, Domain("A", range(1, MEMO_B + 1)), seed=seed,
                          delta=delta)
    server = PrismServer(0, initiator.server_params(0))
    server.num_shards = num_shards
    rng = np.random.default_rng(seed)
    for owner in range(3):
        for column in ("A", "vA"):
            server.receive_shares(owner, column,
                                  rng.integers(0, initiator.delta, MEMO_B),
                                  ShareKind.ADDITIVE)
        server.receive_shares(owner, "X",
                              rng.integers(0, initiator.field_prime, MEMO_B),
                              ShareKind.SHAMIR)
    return server


def per_owner_psi(server, columns, subtract_m, owner_ids, cells=None):
    """The owner-sum and Eq. 3/7 selectors over every owner's shares."""
    shares = [server.fetch_additive(c, owner_ids) for c in columns]
    sums = np.empty((len(columns), MEMO_B), dtype=server.params.additive_dtype)
    sum_sweep(shares, server.params.delta, sums)(0, MEMO_B)
    tables = server.params.group.folded_tables(
        server._batch_m_shares(subtract_m, len(shares[0]), owner_ids))
    n = MEMO_B if cells is None else cells.size
    out = np.empty((len(columns), n), dtype=server.params.group_dtype)
    psi_sweep(list(sums), tables, out, cells)(0, n)
    return out


def per_owner_psu(server, columns, nonces, owner_ids):
    """The owner-sum and Eq. 18 selectors over every owner's shares."""
    shares = [server.fetch_additive(c, owner_ids) for c in columns]
    delta = server.params.delta
    sums = np.empty((len(columns), MEMO_B), dtype=server.params.additive_dtype)
    sum_sweep(shares, delta, sums)(0, MEMO_B)
    out = np.empty_like(sums)
    psu_sweep(list(sums), server._psu_keys(nonces), delta, out)(0, MEMO_B)
    return out


def per_owner_agg(server, columns, z_matrix, owner_ids):
    """The owner-sum (mod p) and Eq. 11 selectors over every owner's
    shares."""
    shares = [server.fetch_shamir(c, owner_ids) for c in columns]
    p = server.params.field_prime
    sums = np.empty(z_matrix.shape, dtype=server.params.shamir_dtype)
    sum_sweep(shares, p, sums)(0, MEMO_B)
    out = np.empty_like(sums)
    agg_sweep(list(sums), z_matrix, p, out)(0, MEMO_B)
    return out


class TestOwnerSumMemo:
    """Each server sums a column's owners once per store version; every
    sweep output stays bit-identical to the sweep over every owner."""

    @pytest.mark.parametrize("num_shards", [1, 3])
    @pytest.mark.parametrize("delta", [101, 257])
    def test_outputs_equal_the_per_owner_sweeps(self, tier, delta,
                                                num_shards):
        server = memo_server(delta, num_shards)
        rng = np.random.default_rng(delta + num_shards)
        cells = rng.permutation(MEMO_B)[:700].astype(np.int64)
        z = rng.integers(0, server.params.field_prime,
                         size=(2, MEMO_B)).astype(np.uint32)
        lo, hi = 150, 1050
        psi_cols, flags = ["A", "vA"], [True, False]
        try:
            for round_no, owner_ids in enumerate((None, [0, 2], None)):
                psi = per_owner_psi(server, psi_cols, flags, owner_ids)
                np.testing.assert_array_equal(server.psi_round_batch(
                    psi_cols, owner_ids, flags), psi)
                np.testing.assert_array_equal(server.psi_round_batch(
                    psi_cols, owner_ids, flags, span=(lo, hi)),
                    psi[:, lo:hi])
                gathered = per_owner_psi(server, psi_cols, flags, owner_ids,
                                         cells)
                cell_sweep = {"family": "cells", "columns": psi_cols,
                              "cells": cells, "owner_ids": owner_ids,
                              "subtract_m": flags}
                np.testing.assert_array_equal(server.indicator_round(
                    [cell_sweep])[0], gathered)
                np.testing.assert_array_equal(server.indicator_round(
                    [dict(cell_sweep, cells=cells[100:650])],
                    span=(100, 650))[0], gathered[:, 100:650])
                psu_cols, nonces = ["A", "vA", "A"], [3, 4, 5]
                psu = per_owner_psu(server, psu_cols, nonces, owner_ids)
                np.testing.assert_array_equal(server.psu_round_batch(
                    psu_cols, nonces, owner_ids), psu)
                np.testing.assert_array_equal(server.psu_round_batch(
                    psu_cols, nonces, owner_ids, span=(lo, hi)),
                    psu[:, lo:hi])
                agg = per_owner_agg(server, ["X", "X"], z, owner_ids)
                np.testing.assert_array_equal(server.aggregate_round_batch(
                    ["X", "X"], z, owner_ids), agg)
                np.testing.assert_array_equal(server.aggregate_round_batch(
                    ["X", "X"], z[:, lo:hi], owner_ids, span=(lo, hi)),
                    agg[:, lo:hi])
                # Each owner set change misses once per (column, kind);
                # at most one vector per (column, kind) is ever kept.
                info = server.store.fetch_cache_info()
                assert info["sum_builds"] == 3 * (round_no + 1)
                assert info["sums"] == 3
        finally:
            server.close()

    def test_one_entry_per_column_and_kind(self):
        server = memo_server(101)
        server.psi_round_batch(["A"])
        kept = server.store.summed("A", ShareKind.ADDITIVE)
        server.psi_round_batch(["A"], owner_ids=[0, 1])
        assert server.store.fetch_cache_info()["sums"] == 1
        assert server.store.summed("A", ShareKind.ADDITIVE) is None
        assert server.store.summed("A", ShareKind.ADDITIVE, [0, 1]) is not kept
        server.psi_round_batch(["A"])
        assert server.store.fetch_cache_info()["sum_builds"] == 3

    def test_a_racing_put_is_never_kept(self):
        # A put landing between the sweep's fetch and its publish: the
        # built vector serves that sweep but is not kept, and the next
        # sweep sums the new shares.
        server = memo_server(101)
        fresh = np.ones(MEMO_B, dtype=np.uint8)
        store = server.store

        class RacingStore(ServerStore):
            raced = False

            def get(self, owner_id, column):
                stored = super().get(owner_id, column)
                if not RacingStore.raced:
                    RacingStore.raced = True
                    self.put(0, "A", fresh, ShareKind.ADDITIVE)
                return stored

        racing = RacingStore()
        for (owner, column), stored in store._data.items():
            racing.put(owner, column, stored.values, stored.kind)
        server.store = racing
        server.psi_round_batch(["A"])
        assert racing.summed("A", ShareKind.ADDITIVE) is None
        assert racing.fetch_cache_info()["sums"] == 0
        assert server.fetch_additive("A")[0] is racing.get(0, "A").values
        np.testing.assert_array_equal(server.psi_round_batch(["A"]),
                                      per_owner_psi(server, ["A"], [True],
                                                    None))
        assert racing.fetch_cache_info()["sums"] == 1


    def test_concurrent_sweeps_and_puts_keep_no_stale_vector(self):
        # Sweeping threads race a writer re-sharing owner 0's columns.
        # Once the writer stops, every kept vector must sum the final
        # shares: a publish that lost the race to a put would not.
        server = memo_server(101, num_shards=2)
        try:
            self._race(server)
        finally:
            server.close()

    @staticmethod
    def _race(server):
        rng = np.random.default_rng(9)
        z = rng.integers(0, server.params.field_prime,
                         size=(1, MEMO_B)).astype(np.uint32)
        writing = threading.Event()
        writing.set()
        errors = []

        def sweep():
            try:
                while writing.is_set():
                    server.psi_round_batch(["A", "vA"])
                    server.psu_round_batch(["A"], [1])
                    server.aggregate_round_batch(["X"], z)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sweepers = [threading.Thread(target=sweep) for _ in range(4)]
            for thread in sweepers:
                thread.start()
            for _ in range(60):
                server.receive_shares(
                    0, "A", rng.integers(0, server.params.delta, MEMO_B),
                    ShareKind.ADDITIVE)
                server.receive_shares(
                    0, "X", rng.integers(0, server.params.field_prime,
                                         MEMO_B), ShareKind.SHAMIR)
            writing.clear()
            for thread in sweepers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in sweepers)
        finally:
            writing.clear()
            sys.setswitchinterval(interval)
        assert not errors, errors
        for column, kind, fetch, modulus in (
                ("A", ShareKind.ADDITIVE, server.fetch_additive,
                 server.params.delta),
                ("X", ShareKind.SHAMIR, server.fetch_shamir,
                 server.params.field_prime)):
            kept = server.store.summed(column, kind)
            if kept is not None:
                total = sum(s.astype(np.int64) for s in fetch(column))
                np.testing.assert_array_equal(kept, total % modulus)
        np.testing.assert_array_equal(
            server.psi_round_batch(["A", "vA"]),
            per_owner_psi(server, ["A", "vA"], [True, True], None))
        np.testing.assert_array_equal(
            server.aggregate_round_batch(["X"], z),
            per_owner_agg(server, ["X"], z, None))


def memo_system(sets, seed=3, **kwargs):
    relations = [Relation(f"o{i}", {"k": sorted(s),
                                    "cost": [v + i for v in sorted(s)]})
                 for i, s in enumerate(sets)]
    return PrismSystem.build(relations, Domain("k", range(1, 33)), "k",
                             agg_attributes=("cost",), seed=seed, **kwargs)


class TestOwnerSumMemoInTheSystem:
    def test_a_second_psi_sum_builds_nothing(self):
        system = memo_system([{1, 2, 3}, {2, 3, 4}, {3, 4, 5}])
        first = system.psi_sum("k", "cost")
        built = [s.store.fetch_cache_info()["sum_builds"]
                 for s in system.servers]
        assert built == [2, 2, 1]  # k (servers 0, 1) and cost (all three)
        second = system.psi_sum("k", "cost")
        after = [s.store.fetch_cache_info() for s in system.servers]
        assert [info["sum_builds"] for info in after] == built
        assert all(info["sum_hits"] > 0 for info in after)
        assert first["cost"].per_value == second["cost"].per_value
        system.close()

    def test_outsource_drops_every_entry(self):
        system = memo_system([{1, 2, 3}, {2, 3, 4}, {3, 4, 5}])
        assert system.psi("k").values == [3]
        system.owners[0].relation = Relation("o0", {"k": [3, 4],
                                                    "cost": [3, 4]})
        system.outsource("k", ("cost",))
        assert all(s.store.fetch_cache_info()["sums"] == 0
                   for s in system.servers)
        assert system.psi("k").values == [3, 4]
        assert system.psi_sum("k", "cost")["cost"].per_value == {
            3: 3 + 4 + 5, 4: 4 + 5 + 6}
        system.close()

    def test_access_traces_identical_across_datasets(self):
        # Builds on the first query and reads on the repeat, on both
        # datasets alike: the traces cannot tell data apart.
        a = memo_system([{1, 2, 3}, {1, 2, 3}, {1, 2, 3}],
                        server_factories=recording_factories())
        b = memo_system([{30}, {4}, {17}],
                        server_factories=recording_factories())
        for system in (a, b):
            for _ in range(2):
                system.psi("k")
                system.psu("k")
                system.psi_sum("k", "cost")
        assert traces_identical(a, b)
        a.close()
        b.close()
