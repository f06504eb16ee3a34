"""Tests for the analysis subpackage: uniformity, access patterns, costs."""

import numpy as np
import pytest

from repro import Domain, PrismSystem, Relation
from repro.analysis import (
    CostModel,
    access_trace,
    chi_squared_uniformity,
    generator_ambiguity,
    indicator_share_leakage,
    recording_factories,
    reset_traces,
    shares_independent_of_secret,
    traces_identical,
)
from repro.crypto.additive import AdditiveSharing
from repro.crypto.shamir import ShamirSharing
from repro.exceptions import ParameterError, QueryError

DOMAIN32 = list(range(1, 33))


def build(sets, seed=0, factories=None, **kwargs):
    relations = [Relation(f"o{i}", {"k": sorted(s)})
                 for i, s in enumerate(sets)]
    return PrismSystem.build(relations, Domain("k", DOMAIN32), "k",
                             seed=seed, server_factories=factories or {},
                             **kwargs)


class TestUniformity:
    def test_additive_shares_uniform(self):
        scheme = AdditiveSharing(13, rng=np.random.default_rng(3))
        secrets = np.full(20_000, 7, dtype=np.int64)
        share = scheme.share_vector(secrets)[0]
        assert chi_squared_uniformity(share, 13) > 0.001

    def test_shamir_shares_uniform(self):
        scheme = ShamirSharing(prime=101, rng=np.random.default_rng(4))
        secrets = np.full(60_000, 55, dtype=np.int64)
        share = scheme.share_vector(secrets)[0]
        assert chi_squared_uniformity(share, 101) > 0.001

    def test_nonuniform_detected(self):
        biased = np.zeros(1000, dtype=np.int64)  # constant "shares"
        assert chi_squared_uniformity(biased, 13) < 1e-6

    def test_too_few_samples_rejected(self):
        with pytest.raises(ParameterError):
            chi_squared_uniformity(np.zeros(10), 13)

    def test_shares_independent_of_secret(self):
        scheme = AdditiveSharing(101, rng=np.random.default_rng(5))
        a = scheme.share_vector(np.full(5000, 1, dtype=np.int64))[0]
        b = scheme.share_vector(np.full(5000, 99, dtype=np.int64))[0]
        assert shares_independent_of_secret(a, b) > 0.001

    def test_indicator_share_leakage_none(self):
        system = build([set(range(1, 17)), set(range(16, 33))], seed=8)
        p = indicator_share_leakage(system.owners[0], "k")
        assert p > 0.001

    def test_indicator_share_leakage_requires_both_kinds(self):
        system = build([set(DOMAIN32), set(DOMAIN32)])
        with pytest.raises(ParameterError):
            indicator_share_leakage(system.owners[0], "k")


class TestGeneratorAmbiguity:
    def test_nonone_output_maximally_ambiguous(self):
        # The §5.1 lemma at the paper's toy parameters: every non-identity
        # subgroup element is consistent with delta - 1 exponents.
        for beta in (3, 4, 5, 9):
            assert generator_ambiguity(beta, eta=11, delta=5) == 4

    def test_identity_unambiguous(self):
        # g^0 = 1 under every generator: exactly one exponent.
        assert generator_ambiguity(1, eta=11, delta=5) == 1

    def test_non_subgroup_value_rejected(self):
        with pytest.raises(ParameterError):
            generator_ambiguity(2, eta=11, delta=5)  # 2 not in subgroup


class TestAccessPatterns:
    def test_traces_identical_across_datasets(self):
        # Same query shape, disjoint vs overlapping data: identical traces.
        a = build([{1, 2, 3}, {1, 2, 3}], factories=recording_factories())
        b = build([{30}, {4}], factories=recording_factories())
        a.psi("k")
        b.psi("k")
        assert traces_identical(a, b)

    def test_trace_contents(self):
        system = build([{1}, {2}], factories=recording_factories())
        reset_traces(system)
        system.psi("k")
        traces = access_trace(system)
        assert len(traces) == 3
        for trace in traces[:2]:
            assert len(trace) == 1
            event = trace[0]
            assert event.kind == "fetch-additive"
            assert event.column == "k"
            assert event.num_owners == 2
            assert event.vector_length == 32
        assert traces[2] == []  # the Shamir server idles during PSI

    def test_aggregate_traces_identical(self):
        def agg_build(sets):
            relations = [Relation(f"o{i}", {"k": sorted(s),
                                            "v": [1] * len(s)})
                         for i, s in enumerate(sets)]
            return PrismSystem.build(relations, Domain("k", DOMAIN32), "k",
                                     agg_attributes=("v",), seed=1,
                                     server_factories=recording_factories())

        a = agg_build([{1, 2}, {2, 3}])
        b = agg_build([{9, 10}, {11, 12}])
        a.psi_sum("k", "v")
        b.psi_sum("k", "v")
        assert traces_identical(a, b)

    def test_reset(self):
        system = build([{1}, {2}], factories=recording_factories())
        system.psi("k")
        reset_traces(system)
        assert access_trace(system) == [[], [], []]


class TestCostModel:
    def test_psi_bytes_exact(self):
        system = build([{1, 5}, {5, 9}, {9, 5}])
        system.transport.reset()
        result = system.psi("k")
        predicted = CostModel(3, 32).psi()
        assert result.traffic["server_to_owner_bytes"] == \
            predicted.server_to_owner_bytes
        assert result.traffic["rounds"] == predicted.rounds

    def test_verified_psi_bytes_exact(self):
        system = build([{1, 5}, {5, 9}], with_verification=True)
        system.transport.reset()
        result = system.psi("k", verify=True)
        predicted = CostModel(2, 32).psi(verify=True)
        assert result.traffic["server_to_owner_bytes"] == \
            predicted.server_to_owner_bytes

    def test_psu_bytes_exact(self):
        system = build([{1}, {2}])
        system.transport.reset()
        result = system.psu("k")
        predicted = CostModel(2, 32).psu()
        assert result.traffic["server_to_owner_bytes"] == \
            predicted.server_to_owner_bytes

    def test_sum_bytes_exact(self):
        relations = [Relation(f"o{i}", {"k": [1, 2], "v": [3, 4]})
                     for i in range(3)]
        system = PrismSystem.build(relations, Domain("k", DOMAIN32), "k",
                                   agg_attributes=("v",), seed=2)
        system.transport.reset()
        result = system.psi_sum("k", "v")["v"]
        predicted = CostModel(3, 32).aggregate(1)
        assert result.traffic["server_to_owner_bytes"] == \
            predicted.server_to_owner_bytes
        assert result.traffic["owner_to_server_bytes"] == \
            predicted.owner_to_server_bytes
        assert result.traffic["rounds"] == predicted.rounds

    def test_average_bytes_exact(self):
        relations = [Relation(f"o{i}", {"k": [1], "v": [3]})
                     for i in range(2)]
        system = PrismSystem.build(relations, Domain("k", DOMAIN32), "k",
                                   agg_attributes=("v",), seed=2)
        system.transport.reset()
        result = system.psi_average("k", "v")["v"]
        predicted = CostModel(2, 32).aggregate(1, average=True)
        assert result.traffic["server_to_owner_bytes"] == \
            predicted.server_to_owner_bytes

    def test_outsourcing_bytes_exact(self):
        relations = [Relation(f"o{i}", {"k": [1, 2], "v": [3, 4]})
                     for i in range(2)]
        system = PrismSystem(relations, Domain("k", DOMAIN32), seed=2)
        system.outsource("k", ("v",), with_verification=True)
        measured = system.transport.stats.summary()["owner_to_server_bytes"]
        predicted = CostModel(2, 32).outsourcing(1, with_verification=True)
        assert measured == predicted

    def test_verified_psu_bytes_exact(self):
        # A uint8 PSU stream (mod δ) plus a uint16 Eq. 7 stream (mod η').
        system = build([{1, 5}, {5, 9}], with_verification=True)
        system.transport.reset()
        result = system.psu("k", verify=True)
        predicted = CostModel(2, 32).psu(verify=True)
        assert predicted.server_to_owner_bytes == 2 * 2 * 32 * (1 + 2)
        assert result.traffic["server_to_owner_bytes"] == \
            predicted.server_to_owner_bytes
        # The PSU sweep and its Eq. 3 proof sweep share one round.
        assert result.traffic["rounds"] == predicted.rounds == 1

    def test_default_widths(self):
        model = CostModel(3, 32)
        assert (model.additive_bytes, model.group_bytes,
                model.shamir_bytes) == (1, 2, 4)
        assert model.psi().server_to_owner_bytes == 2 * 3 * 32 * 2
        assert model.psu().server_to_owner_bytes == 2 * 3 * 32 * 1

    def test_delta_257_widens_the_additive_streams(self):
        relations = [Relation(f"o{i}", {"k": [1, 2, 5], "v": [3, 4, 6]})
                     for i in range(2)]
        system = PrismSystem(relations, Domain("k", DOMAIN32), seed=2,
                             delta=257)
        system.outsource("k", ("v",), with_verification=True)
        model = CostModel(2, 32, delta=257)
        assert (model.additive_bytes, model.group_bytes,
                model.shamir_bytes) == (2, 2, 4)
        measured = system.transport.stats.summary()["owner_to_server_bytes"]
        assert measured == model.outsourcing(1, with_verification=True)
        for query, predicted in (
                (lambda: system.psi("k", verify=True), model.psi(True)),
                (lambda: system.psu("k", verify=True), model.psu(True)),
                (lambda: system.psi_sum("k", "v")["v"], model.aggregate(1))):
            system.transport.reset()
            traffic = query().traffic
            assert traffic["server_to_owner_bytes"] == \
                predicted.server_to_owner_bytes
            assert traffic["owner_to_server_bytes"] == \
                predicted.owner_to_server_bytes

    def test_linear_in_m_and_b(self):
        small = CostModel(10, 1000).psi()
        double_m = CostModel(20, 1000).psi()
        double_b = CostModel(10, 2000).psi()
        assert double_m.server_to_owner_bytes == 2 * small.server_to_owner_bytes
        assert double_b.server_ops == 2 * small.server_ops

    def test_extrema_estimate_fields(self):
        est = CostModel(5, 100).extrema(num_common=2)
        assert est.rounds == 1 + 2 * 2
        assert est.total_bytes > 0

    def test_complexity_class_string(self):
        assert CostModel(7, 99).complexity_class() == "O(m*X) = O(7 * 99)"

    def test_validation(self):
        with pytest.raises(QueryError):
            CostModel(1, 100)
        with pytest.raises(QueryError):
            CostModel(3, 100).aggregate(0)
