"""The batched multi-query execution engine (repro.core.batch).

The contract under test: a fused batch returns results *identical* to
running the same queries one by one through the sequential API, while
executing fewer server sweeps and reusing dealt indicator shares.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BatchQuery, Domain, PrismSystem, QueryError, Relation
from repro.core.batch import QueryBatch
from repro.exceptions import VerificationError


def build_hospitals(**kwargs):
    relations = [
        Relation("hospital1", {
            "name": ["John", "Adam", "Mike"],
            "age": [4, 6, 2],
            "disease": ["Cancer", "Cancer", "Heart"],
            "cost": [100, 200, 300],
        }),
        Relation("hospital2", {
            "name": ["John", "Adam", "Bob"],
            "age": [8, 5, 4],
            "disease": ["Cancer", "Fever", "Fever"],
            "cost": [100, 70, 50],
        }),
        Relation("hospital3", {
            "name": ["Carl", "John", "Lisa"],
            "age": [8, 4, 5],
            "disease": ["Cancer", "Cancer", "Heart"],
            "cost": [300, 700, 500],
        }),
    ]
    domain = Domain("disease", ["Cancer", "Fever", "Heart"])
    return PrismSystem.build(relations, domain, "disease",
                             agg_attributes=("cost", "age"),
                             with_verification=True, seed=11, **kwargs)


MIXED_QUERIES = [
    BatchQuery("psi", "disease", verify=True),
    BatchQuery("psu", "disease"),
    BatchQuery("psi_count", "disease", verify=True),
    BatchQuery("psu_count", "disease"),
    BatchQuery("psi_sum", "disease", agg_attributes=("cost",), verify=True),
    BatchQuery("psi_average", "disease", agg_attributes=("cost", "age")),
    BatchQuery("psu_sum", "disease", agg_attributes=("cost",)),
    BatchQuery("psi", "disease"),
    BatchQuery("psi_sum", "disease", agg_attributes=("age",)),
    BatchQuery("psi_count", "disease"),
]


def assert_results_equal(query, sequential, batched):
    if query.kind in ("psi", "psu"):
        assert batched.values == sequential.values
        assert np.array_equal(batched.membership, sequential.membership)
        assert batched.verified == sequential.verified
    elif query.kind.endswith("count"):
        assert batched.count == sequential.count
    else:
        for agg in query.agg_attributes:
            assert batched[agg].per_value == sequential[agg].per_value
            assert batched[agg].verified == sequential[agg].verified


# -- equality with the sequential path ---------------------------------------


def test_mixed_batch_matches_sequential():
    """A fused batch of >= 8 mixed queries is result-identical to the loop."""
    sequential = [q.run_sequential(build_hospitals()) for q in MIXED_QUERIES]
    batched = build_hospitals().run_batch(MIXED_QUERIES)
    assert len(batched) == len(MIXED_QUERIES) >= 8
    for query, seq, bat in zip(MIXED_QUERIES, sequential, batched):
        assert_results_equal(query, seq, bat)


def test_batch_on_same_system_matches_sequential_on_same_system():
    """Batch after sequential on one deployment still agrees (fresh nonces)."""
    system = build_hospitals()
    sequential = [q.run_sequential(system) for q in MIXED_QUERIES]
    batched = system.run_batch(MIXED_QUERIES)
    for query, seq, bat in zip(MIXED_QUERIES, sequential, batched):
        assert_results_equal(query, seq, bat)


def test_batch_through_wire_codec():
    """serialize_transport exercises the 2-D matrix wire encoding."""
    batched = build_hospitals(serialize_transport=True).run_batch(MIXED_QUERIES)
    reference = [q.run_sequential(build_hospitals()) for q in MIXED_QUERIES]
    for query, seq, bat in zip(MIXED_QUERIES, reference, batched):
        assert_results_equal(query, seq, bat)


def test_batch_owner_subset():
    queries = [
        BatchQuery("psi", "disease", owner_ids=(0, 1)),
        BatchQuery("psi_sum", "disease", agg_attributes=("cost",),
                   owner_ids=(0, 1)),
        BatchQuery("psu_count", "disease", owner_ids=(0, 2)),
    ]
    sequential = [q.run_sequential(build_hospitals()) for q in queries]
    batched = build_hospitals().run_batch(queries)
    for query, seq, bat in zip(queries, sequential, batched):
        assert_results_equal(query, seq, bat)


def test_batch_accepts_sql_and_dicts():
    sql = ("SELECT disease FROM h1 INTERSECT SELECT disease FROM h2 "
           "INTERSECT SELECT disease FROM h3")
    results = build_hospitals().run_batch([
        sql,
        {"kind": "psi_count", "attribute": "disease"},
        BatchQuery("psu", "disease"),
    ])
    reference = build_hospitals()
    assert results[0].values == reference.psi("disease").values
    assert results[1].count == reference.psi_count("disease").count
    assert sorted(results[2].values) == sorted(reference.psu("disease").values)


def test_batch_threads_match_single_thread():
    single = build_hospitals().run_batch(MIXED_QUERIES, num_shards=1)
    threaded = build_hospitals().run_batch(MIXED_QUERIES, num_shards=4)
    for query, a, b in zip(MIXED_QUERIES, single, threaded):
        assert_results_equal(query, a, b)


# -- edge cases ---------------------------------------------------------------


def test_empty_batch():
    assert build_hospitals().run_batch([]) == []


def test_single_query_batch():
    system = build_hospitals()
    (result,) = system.run_batch([BatchQuery("psi", "disease", verify=True)])
    assert result.values == build_hospitals().psi("disease").values
    assert result.verified


def test_unknown_kind_rejected():
    with pytest.raises(QueryError):
        BatchQuery("psi_max", "disease")


def test_agg_kind_requires_agg_attributes():
    with pytest.raises(QueryError):
        BatchQuery("psi_sum", "disease")
    with pytest.raises(QueryError):
        BatchQuery("psi", "disease", agg_attributes=("cost",))


def test_psu_count_has_no_verification():
    with pytest.raises(QueryError):
        BatchQuery("psu_count", "disease", verify=True)


def test_extrema_sql_not_batchable():
    sql = ("SELECT disease, MAX(age) FROM h1 INTERSECT "
           "SELECT disease, MAX(age) FROM h2")
    with pytest.raises(QueryError):
        BatchQuery.coerce(sql)


def test_batch_detects_tampering():
    """A malicious server is still caught inside a fused sweep."""
    system = build_hospitals()
    server = system.servers[0]
    column = "disease"
    stored = server.store.get(0, column)
    tampered = stored.values.copy()
    tampered[0] = (tampered[0] + 1) % system.initiator.delta
    server.store.put(0, column, tampered, stored.kind)
    with pytest.raises(VerificationError):
        system.run_batch([BatchQuery("psi", "disease", verify=True)])


# -- planner accounting -------------------------------------------------------


def test_plan_deduplicates_shared_rows():
    system = build_hospitals()
    batch = QueryBatch(system, [
        BatchQuery("psi", "disease"),
        BatchQuery("psi", "disease"),
        BatchQuery("psi_sum", "disease", agg_attributes=("cost",)),
    ])
    plan = batch.plan()
    # All three queries share the single Eq. 3 sweep row over 'disease'.
    assert plan["psi_rows"] == 1
    assert plan["rows_deduplicated"] == 2


def test_psu_rows_never_deduplicated():
    """Each PSU query keeps its own nonce/mask stream, even when repeated."""
    system = build_hospitals()
    batch = QueryBatch(system, [
        BatchQuery("psu", "disease"),
        BatchQuery("psu", "disease"),
    ])
    assert batch.plan()["psu_rows"] == 2


def test_fused_sweep_counts():
    system = build_hospitals()
    batch = QueryBatch(system, MIXED_QUERIES)
    batch.execute()
    # 2 servers x (psi family + count family + psu family) fused sweeps.
    assert batch.stats["indicator_sweeps"] == 6
    # 3 servers x one fused Eq. 11 sweep (single owner group / querier).
    assert batch.stats["aggregate_sweeps"] == 3


# -- the indicator-share cache ------------------------------------------------


def test_cache_hits_on_overlapping_aggregations():
    system = build_hospitals()
    cache = system.initiator.indicator_cache
    assert cache.stats["entries"] == 0
    system.run_batch([
        BatchQuery("psi_sum", "disease", agg_attributes=("cost",)),
        BatchQuery("psi_average", "disease", agg_attributes=("cost", "age")),
    ])
    first = cache.stats
    assert first["misses"] >= 1
    assert first["hits"] >= 1  # the average reuses the sum's z shares

    system.run_batch([
        BatchQuery("psi_sum", "disease", agg_attributes=("age",)),
    ])
    second = cache.stats
    assert second["hits"] > first["hits"]
    assert second["misses"] == first["misses"]  # pure hit, no new dealing


def test_sequential_aggregations_share_the_cache():
    system = build_hospitals()
    cache = system.initiator.indicator_cache
    system.psi_sum("disease", "cost")
    misses = cache.stats["misses"]
    system.psi_sum("disease", "cost")
    assert cache.stats["misses"] == misses
    assert cache.stats["hits"] >= 1


def test_cache_invalidated_on_outsource():
    system = build_hospitals()
    system.psi_sum("disease", "cost")
    assert system.initiator.indicator_cache.stats["entries"] > 0
    invalidations = system.initiator.indicator_cache.stats["invalidations"]
    system.outsource("disease", ("cost", "age"), with_verification=True)
    stats = system.initiator.indicator_cache.stats
    assert stats["entries"] == 0
    assert stats["invalidations"] == invalidations + 1
    # And the refreshed deployment still answers correctly.
    result = system.psi_sum("disease", "cost")["cost"]
    assert result.per_value == {"Cancer": 1400}


def test_cache_evicts_oldest_at_capacity():
    from repro.entities.initiator import IndicatorShareCache
    import numpy as np

    cache = IndicatorShareCache(max_entries=2)
    vec = np.ones(4, dtype=np.int64)
    keys = [cache.key("z", 0, f"col{i}", None, vec) for i in range(3)]
    for key in keys:
        cache.put(key, [vec.copy(), vec.copy(), vec.copy()])
    assert cache.stats["entries"] == 2
    assert cache.stats["evictions"] == 1
    assert cache.get(keys[0]) is None      # oldest evicted
    assert cache.get(keys[2]) is not None  # newest retained


def test_reexecuted_batch_draws_fresh_psu_nonces():
    """Re-running one plan must never replay an Eq. 18 mask stream."""
    system = build_hospitals()
    batch = QueryBatch(system, [BatchQuery("psu", "disease"),
                                BatchQuery("psu_count", "disease")])
    first = batch.execute()
    nonce_after_first = system._nonce
    second = batch.execute()
    assert system._nonce == nonce_after_first + 2
    assert sorted(first[0].values) == sorted(second[0].values)
    assert first[1].count == second[1].count


def test_distinct_memberships_never_collide():
    """PSI and PSU indicators over the same column get distinct entries."""
    system = build_hospitals()
    batch_results = system.run_batch([
        BatchQuery("psi_sum", "disease", agg_attributes=("cost",)),
        BatchQuery("psu_sum", "disease", agg_attributes=("cost",)),
    ])
    psi_values = set(batch_results[0]["cost"].per_value)
    psu_values = set(batch_results[1]["cost"].per_value)
    assert psi_values == {"Cancer"}
    assert psu_values == {"Cancer", "Fever", "Heart"}
