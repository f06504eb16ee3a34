"""Batched multi-query execution: one fused sweep per kernel family.

A serving deployment rarely answers one query at a time.  This example
submits a mixed batch — PSI, PSU, counts, sums, an average — to the
batch engine: each query is lowered to a ``LogicalPlan``, and
``QueryBatch`` groups the plans' units by kernel family, deduplicates
rows that read the same χ column, executes each family as a single
fused 2-D server sweep, and reuses dealt indicator shares from the
initiator's cache.  Results are identical to calling the per-query
methods one by one.  ``client.execute_many`` (or
``system.executor.execute_many``) runs exactly this engine underneath;
the example drives ``QueryBatch`` directly to show its statistics.

Run:  python examples/batch_queries.py
"""

from repro import Domain, Planner, PrismSystem, Q, Relation
from repro.core.batch import QueryBatch

# The paper's running example (Tables 1-3): three hospitals.
hospital1 = Relation("hospital1", {
    "name": ["John", "Adam", "Mike"],
    "age": [4, 6, 2],
    "disease": ["Cancer", "Cancer", "Heart"],
    "cost": [100, 200, 300],
})
hospital2 = Relation("hospital2", {
    "name": ["John", "Adam", "Bob"],
    "age": [8, 5, 4],
    "disease": ["Cancer", "Fever", "Fever"],
    "cost": [100, 70, 50],
})
hospital3 = Relation("hospital3", {
    "name": ["Carl", "John", "Lisa"],
    "age": [8, 4, 5],
    "disease": ["Cancer", "Cancer", "Heart"],
    "cost": [300, 700, 500],
})

domain = Domain("disease", ["Cancer", "Fever", "Heart"])
system = PrismSystem.build(
    [hospital1, hospital2, hospital3], domain,
    psi_attribute="disease",
    agg_attributes=("cost", "age"),
    with_verification=True,
    seed=2021,
)

# A mixed batch: queries can be fluent builders or Table-4 SQL.
queries = [
    Q.psi("disease").verify(),
    Q.psu("disease"),
    Q.psi("disease").count(),
    Q.psu("disease").count(),
    Q.psi("disease").sum("cost"),
    Q.psi("disease").avg("cost", "age"),
    Q.psi("disease").sum("age"),
    "SELECT disease FROM h1 INTERSECT SELECT disease FROM h2 "
    "INTERSECT SELECT disease FROM h3",
]

# The engine consumes (plan, unit) pairs; each of these plans has one
# unit, and SUM/AVG units return attribute-keyed results.
plans = Planner().lower_many(queries)
batch = QueryBatch(system, [(plan, unit) for plan in plans
                            for unit in plan.units()])
results = batch.execute()

print("== One fused batch, eight queries ==")
psi, psu, psi_count, psu_count, sums, avgs, age_sums, sql_psi = results
print(f"PSI (verified={psi.verified})      : {psi.values}")
print(f"PSU                        : {sorted(psu.values)}")
print(f"PSI cardinality            : {psi_count.count}")
print(f"PSU cardinality            : {psu_count.count}")
print(f"sum(cost) per common value : {sums['cost'].per_value}")
print(f"avg(cost) per common value : {avgs['cost'].per_value}")
print(f"avg(age)  per common value : {avgs['age'].per_value}")
print(f"sum(age)  per common value : {age_sums['age'].per_value}")
print(f"SQL-submitted PSI          : {sql_psi.values}")

print("\n== What fusion saved ==")
plan = batch.stats["plan"]
print(f"rows requested             : {plan['rows_requested']}")
print(f"rows deduplicated          : {plan['rows_deduplicated']}")
print(f"fused indicator sweeps     : {batch.stats['indicator_sweeps']} "
      f"(vs {2 * plan['rows_requested']} sequential server sweeps)")
print(f"fused aggregation sweeps   : {batch.stats['aggregate_sweeps']}")
print(f"indicator-share cache      : {batch.stats['cache']}")

# Overlapping follow-up queries hit the cache outright.
system.executor.execute_many([
    Q.psi("disease").sum("cost"),
    Q.psi("disease").avg("age"),
])
print(f"after a follow-up batch    : {system.initiator.indicator_cache.stats}")
