"""The unified client API: one plan IR, one executor, every query form.

The same deployment as the quickstart, driven through
:class:`repro.PrismClient`: Table-4 SQL (with multi-aggregate
projections and EXPLAIN), the fluent ``Q`` builder, and fused
multi-query submission — all lowering to one ``LogicalPlan`` and
executing through the batched server kernels.

Run:  python examples/client_api.py
"""

from repro import Domain, PrismClient, Q, Relation

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

# -- connect: build + outsource + open a session ------------------------------

client = PrismClient.connect(
    [hospital1, hospital2, hospital3],
    Domain("disease", ["Cancer", "Fever", "Heart"]),
    "disease", agg_attributes=("cost", "age"),
    with_verification=True, seed=11,
)

# -- the SQL surface (Table 4, extended) --------------------------------------

psi_sql = ("SELECT disease FROM h1 INTERSECT SELECT disease FROM h2 "
           "INTERSECT SELECT disease FROM h3")

print("EXPLAIN:", client.execute("EXPLAIN " + psi_sql))
result = client.execute(psi_sql + " VERIFY")
print("PSI (verified):", result.values)
assert result.values == ["Cancer"] and result.verified

# Multiple aggregates in one projection (Table 12):
multi = client.execute(
    "SELECT disease, SUM(cost), AVG(age) FROM h1 "
    "INTERSECT SELECT disease, SUM(cost), AVG(age) FROM h2 "
    "INTERSECT SELECT disease, SUM(cost), AVG(age) FROM h3")
print("SUM(cost):", multi["SUM(cost)"].per_value)
print("AVG(age):", multi["AVG(age)"].per_value)
assert multi["SUM(cost)"].per_value == {"Cancer": 1400}

# -- the fluent builder -------------------------------------------------------

union = client.execute(Q.psu("disease"))
print("PSU:", sorted(union.values))

# One fluent query mixing fused sweeps with an announcer-interactive MAX:
mixed = client.execute(Q.psi("disease").sum("cost").max("age"))
print("mixed:", {key: res.per_value for key, res in mixed.items()})
assert mixed["MAX(age)"].per_value == {"Cancer": 8}

# -- fused multi-query submission ---------------------------------------------

# Heterogeneous forms in one call; batchable units fuse into one sweep
# per kernel family (single queries above already ran as batches of one).
psi, count, cost_sum = client.execute_many([
    Q.psi("disease").verify(),
    "SELECT COUNT(disease) FROM h1 UNION SELECT COUNT(disease) FROM h2 "
    "UNION SELECT COUNT(disease) FROM h3",
    Q.psi("disease").sum("cost"),
])
print("fused:", psi.values, count.count, cost_sum.per_value)

# -- session accounting -------------------------------------------------------

stats = client.stats
print("session stats:", {
    "queries": stats["queries"],
    "by_kind": stats["by_kind"],
    "batched_units": stats["batched_units"],
    "interactive_units": stats["interactive_units"],
    "traffic_kib": round(stats["traffic"]["bytes"] / 1024, 1),
})
assert stats["batched_units"] >= 7  # everything above except the MAX

# Single queries really take the fused kernels: the wire labels say so.
kinds = client.system.transport.stats.messages_by_kind
assert any(kind.startswith("batch:") for kind in kinds)

# -- migrating from the legacy per-method API ---------------------------------

# system.psi("disease")             -> client.execute(Q.psi("disease"))
# system.psi_sum("disease", "cost") -> client.execute(Q.psi("disease").sum("cost"))
# system.psi_max("disease", "age")  -> client.execute(Q.psi("disease").max("age"))
# (The PrismSystem methods still work — they are shims over this path.)

print("client_api example OK")
