"""The batched multi-query execution engine (repro.core.batch).

The contract under test: a fused batch of ``(LogicalPlan, PlanUnit)``
pairs returns the plaintext answer for every unit, *identical* to running
each unit alone as a batch of one, while executing fewer server sweeps
and reusing dealt indicator shares.
"""

from __future__ import annotations

import pytest

from reference import (
    assert_matches_plaintext,
    batch_units,
    canonical,
    run_alone,
)

from repro import Domain, LogicalPlan, PrismSystem, Q, QueryError, Relation
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


MIXED_QUERIES = batch_units([
    Q.psi("disease").verify(),
    Q.psu("disease"),
    Q.psi("disease").count().verify(),
    Q.psu("disease").count(),
    Q.psi("disease").sum("cost").verify(),
    Q.psi("disease").avg("cost", "age"),
    Q.psu("disease").sum("cost"),
    Q.psi("disease"),
    Q.psi("disease").sum("age"),
    Q.psi("disease").count(),
])


def execute_batch(system, units, num_shards=None):
    return QueryBatch(system, units, num_shards=num_shards).execute()


def assert_fused_equals_alone(units, batched, relations):
    """Each result is the plaintext answer and equals its unit run alone
    on a fresh deployment."""
    assert len(batched) == len(units)
    for (plan, unit), result in zip(units, batched):
        assert_matches_plaintext(result, relations, plan, unit)
        assert canonical(result) == canonical(
            run_alone(build_hospitals(), plan, unit))


# -- equality with the plaintext answer and with each unit alone -------------


def test_mixed_batch_matches_sequential():
    """A fused batch of >= 8 mixed queries equals its units run alone."""
    system = build_hospitals()
    batched = execute_batch(system, MIXED_QUERIES)
    assert len(batched) >= 8
    assert_fused_equals_alone(MIXED_QUERIES, batched, system.relations)


def test_batch_on_same_system_matches_sequential_on_same_system():
    """Units alone, then the batch, on one deployment agree (fresh nonces)."""
    system = build_hospitals()
    alone = [canonical(run_alone(system, *entry)) for entry in MIXED_QUERIES]
    batched = execute_batch(system, MIXED_QUERIES)
    assert [canonical(result) for result in batched] == alone


def test_batch_through_wire_codec():
    """serialize_transport exercises the 2-D matrix wire encoding."""
    system = build_hospitals(serialize_transport=True)
    batched = execute_batch(system, MIXED_QUERIES)
    assert_fused_equals_alone(MIXED_QUERIES, batched, system.relations)


def test_batch_owner_subset():
    queries = batch_units([
        Q.psi("disease").owners((0, 1)),
        Q.psi("disease").sum("cost").owners((0, 1)),
        Q.psu("disease").count().owners((0, 2)),
    ])
    system = build_hospitals()
    batched = execute_batch(system, queries)
    assert_fused_equals_alone(queries, batched, system.relations)


def test_batch_accepts_sql_and_builders():
    sql = ("SELECT disease FROM h1 INTERSECT SELECT disease FROM h2 "
           "INTERSECT SELECT disease FROM h3")
    results = build_hospitals().executor.execute_many([
        sql,
        Q.psi("disease").count(),
        LogicalPlan(set_op="psu", attribute="disease"),
    ])
    reference = build_hospitals()
    assert results[0].values == reference.psi("disease").values
    assert results[1].count == reference.psi_count("disease").count
    assert sorted(results[2].values) == sorted(reference.psu("disease").values)


def test_batch_threads_match_single_thread():
    single = execute_batch(build_hospitals(), MIXED_QUERIES, num_shards=1)
    threaded = execute_batch(build_hospitals(), MIXED_QUERIES, num_shards=4)
    assert ([canonical(result) for result in single]
            == [canonical(result) for result in threaded])


# -- edge cases ---------------------------------------------------------------


def test_empty_batch():
    assert execute_batch(build_hospitals(), []) == []


def test_single_query_batch():
    system = build_hospitals()
    (result,) = execute_batch(system, batch_units([Q.psi("disease").verify()]))
    assert result.values == build_hospitals().psi("disease").values
    assert result.verified


def test_unknown_kind_rejected():
    with pytest.raises(QueryError):
        QueryBatch(build_hospitals(),
                   batch_units([Q.psi("disease").max("age")]))


def test_agg_kind_requires_agg_attributes():
    with pytest.raises(QueryError):
        LogicalPlan(set_op="psi", attribute="disease",
                    aggregates=(("SUM", None),))
    with pytest.raises(QueryError):
        LogicalPlan(set_op="psi", attribute="disease",
                    aggregates=(("COUNT", "cost"),))


def test_psu_count_has_no_verification():
    with pytest.raises(QueryError):
        Q.psu("disease").count().verify().plan()


def test_extrema_sql_not_batchable():
    sql = ("SELECT disease, MAX(age) FROM h1 INTERSECT "
           "SELECT disease, MAX(age) FROM h2")
    with pytest.raises(QueryError):
        QueryBatch(build_hospitals(), batch_units([sql]))


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
        execute_batch(system, batch_units([Q.psi("disease").verify()]))


# -- planner accounting -------------------------------------------------------


def test_plan_deduplicates_shared_rows():
    system = build_hospitals()
    batch = QueryBatch(system, batch_units([
        Q.psi("disease"),
        Q.psi("disease"),
        Q.psi("disease").sum("cost"),
    ]))
    plan = batch.plan()
    # All three queries share the single Eq. 3 sweep row over 'disease'.
    assert plan["psi_rows"] == 1
    assert plan["rows_deduplicated"] == 2


def test_psu_rows_never_deduplicated():
    """Each PSU query keeps its own nonce/mask stream, even when repeated."""
    system = build_hospitals()
    batch = QueryBatch(system, batch_units([Q.psu("disease")] * 2))
    assert batch.plan()["psu_rows"] == 2


def test_fused_sweep_counts():
    system = build_hospitals()
    batch = QueryBatch(system, MIXED_QUERIES)
    batch.execute()
    # 2 servers x (psi family + count family + psu family) fused sweeps.
    assert batch.stats["indicator_sweeps"] == 6
    # 3 servers x one fused Eq. 11 sweep (single owner group / querier).
    assert batch.stats["aggregate_sweeps"] == 3


def test_one_round_kinds_report_one_round():
    """Round 1 is one protocol round however many families it sweeps."""
    system = build_hospitals()
    system.transport.reset()
    results = execute_batch(system, batch_units([
        Q.psi("disease"), Q.psu("disease"), Q.psi("disease").count(),
        Q.psi("disease").verify(), Q.psu("disease").verify()]))
    assert results[0].traffic["rounds"] == 1


def test_batch_with_a_sum_reports_two_rounds():
    system = build_hospitals()
    system.transport.reset()
    results = execute_batch(system, batch_units([
        Q.psi("disease"), Q.psu("disease").count(),
        Q.psi("disease").sum("cost")]))
    assert results[2]["cost"].traffic["rounds"] == 2


# -- the indicator-share cache ------------------------------------------------


def test_cache_hits_on_overlapping_aggregations():
    system = build_hospitals()
    cache = system.initiator.indicator_cache
    assert cache.stats["entries"] == 0
    system.executor.execute_many([
        Q.psi("disease").sum("cost"),
        Q.psi("disease").avg("cost", "age"),
    ])
    first = cache.stats
    assert first["misses"] >= 1
    assert first["hits"] >= 1  # the average reuses the sum's z shares

    system.executor.execute_many([Q.psi("disease").sum("age")])
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
    batch = QueryBatch(system, batch_units([Q.psu("disease"),
                                            Q.psu("disease").count()]))
    first = batch.execute()
    nonce_after_first = system._nonce
    second = batch.execute()
    assert system._nonce == nonce_after_first + 2
    assert sorted(first[0].values) == sorted(second[0].values)
    assert first[1].count == second[1].count


def test_distinct_memberships_never_collide():
    """PSI and PSU indicators over the same column get distinct entries."""
    system = build_hospitals()
    batch_results = execute_batch(system, batch_units([
        Q.psi("disease").sum("cost"),
        Q.psu("disease").sum("cost"),
    ]))
    psi_values = set(batch_results[0]["cost"].per_value)
    psu_values = set(batch_results[1]["cost"].per_value)
    assert psi_values == {"Cancer"}
    assert psu_values == {"Cancer", "Fever", "Heart"}
