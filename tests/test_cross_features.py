"""Cross-feature integration tests: feature combinations that must compose.

Each test exercises two or more orthogonal features together (threads ×
verification, subsets × aggregation, serialization × adversaries, hashed
domains × counts, ...) — the places where implementations usually crack.
"""

import pytest

from repro import (
    Domain,
    HashedDomain,
    PrismSystem,
    Relation,
    VerificationError,
)
from repro.entities.adversary import InjectFakeServer

DOMAIN32 = list(range(1, 33))


def rel_fleet(sets, with_values=False):
    relations = []
    for i, s in enumerate(sets):
        cols = {"k": sorted(s)}
        if with_values:
            cols["v"] = [(x * 3) % 17 + 1 for x in sorted(s)]
        relations.append(Relation(f"o{i}", cols))
    return relations


class TestThreadsTimesVerification:
    def test_threaded_verified_psi(self):
        system = PrismSystem.build(
            rel_fleet([{1, 2, 9}, {2, 9, 30}]), Domain("k", DOMAIN32), "k",
            with_verification=True, num_shards=4, seed=1)
        result = system.psi("k", verify=True)
        assert result.verified
        assert set(result.values) == {2, 9}

    def test_threaded_verified_sum(self):
        system = PrismSystem.build(
            rel_fleet([{1, 2}, {2, 3}], with_values=True),
            Domain("k", DOMAIN32), "k", agg_attributes=("v",),
            with_verification=True, num_shards=3, seed=1)
        result = system.psi_sum("k", "v", verify=True)["v"]
        assert result.verified


class TestSubsetsTimesAggregation:
    def test_subset_owner_sum(self):
        # Aggregate over only owners 0 and 2 of a 3-owner fleet.
        relations = rel_fleet([{1, 2}, {5}, {2, 9}], with_values=True)
        system = PrismSystem.build(relations, Domain("k", DOMAIN32), "k",
                                   agg_attributes=("v",), seed=4)
        result = system.psi_sum("k", "v", owner_ids=[0, 2])["v"]
        expect = {2: relations[0].group_by_sum("k", "v")[2]
                  + relations[2].group_by_sum("k", "v")[2]}
        assert result.per_value == expect

    def test_subset_psu_count(self):
        system = PrismSystem.build(
            rel_fleet([{1}, {2}, {3}]), Domain("k", DOMAIN32), "k", seed=4)
        assert system.psu_count("k", owner_ids=[1, 2]).count == 2


class TestSerializationTimesAdversaries:
    def test_adversary_detected_over_wire(self):
        factory = lambda i, p: InjectFakeServer(i, p, cells=(4,))
        system = PrismSystem.build(
            rel_fleet([{1, 2}, {2, 3}]), Domain("k", DOMAIN32), "k",
            with_verification=True, serialize_transport=True, seed=2,
            server_factories={0: factory})
        with pytest.raises(VerificationError):
            system.psi("k", verify=True)


class TestHashedDomainTimesCounts:
    def test_count_over_hashed_domain(self):
        relations = [Relation("a", {"uid": ["x", "y", "z"]}),
                     Relation("b", {"uid": ["y", "z", "w"]})]
        hd = HashedDomain("uid", 2048, seed=5)
        system = PrismSystem.build(relations, hd, "uid", seed=5)
        assert system.psi_count("uid").count == 2
        assert system.psu_count("uid").count == 4


class TestMaskZerosTimesSubsets:
    def test_masked_subset_query(self):
        system = PrismSystem.build(
            rel_fleet([{1, 5}, {5, 9}, {7}]), Domain("k", DOMAIN32), "k",
            mask_zeros=True, seed=6)
        assert system.psi("k", owner_ids=[0, 1]).values == [5]


class TestBucketizedTimesThreads:
    def test_threaded_bucketized(self):
        system = PrismSystem.build(
            rel_fleet([{4, 7, 30}, {7, 30, 31}]), Domain("k", DOMAIN32),
            "k", num_shards=4, seed=7)
        system.outsource_bucketized("k", fanout=4)
        result, _ = system.bucketized_psi("k")
        assert set(result.values) == {7, 30}


class TestQuerierIndependence:
    def test_every_owner_reaches_same_answer(self):
        sets = [{1, 2, 9}, {2, 9, 12}, {2, 9, 30}]
        system = PrismSystem.build(rel_fleet(sets), Domain("k", DOMAIN32),
                                   "k", seed=8)
        answers = [set(system.psi("k", querier=q).values)
                   for q in range(len(sets))]
        assert all(a == {2, 9} for a in answers)

    def test_aggregate_querier_independence(self):
        relations = rel_fleet([{1, 2}, {2, 3}], with_values=True)
        system = PrismSystem.build(relations, Domain("k", DOMAIN32), "k",
                                   agg_attributes=("v",), seed=8)
        a = system.psi_sum("k", "v", querier=0)["v"].per_value
        b = system.psi_sum("k", "v", querier=1)["v"].per_value
        assert a == b


class TestRepeatedQueriesOneDeployment:
    def test_interleaved_query_mix(self):
        relations = rel_fleet([{1, 2, 9}, {2, 9, 30}], with_values=True)
        system = PrismSystem.build(relations, Domain("k", DOMAIN32), "k",
                                   agg_attributes=("v",),
                                   with_verification=True, seed=9)
        for _ in range(3):
            assert set(system.psi("k", verify=True).values) == {2, 9}
            assert system.psi_count("k").count == 2
            assert set(system.psu("k").values) == {1, 2, 9, 30}
            sums = system.psi_sum("k", "v")["v"].per_value
            assert set(sums) == {2, 9}
