"""Serving concurrent users: sharded kernels + the coalescing scheduler.

A deployment built with ``num_shards > 1`` partitions every χ-length
share vector into contiguous shards and runs the fused server kernels
shard-parallel on a persistent thread pool; ``client.submit``
returns futures and fuses all in-flight queries into one batch per
drain tick, so concurrent users automatically share server sweeps and
the planner's row-dedup.

Run:  python examples/concurrent_serving.py
"""

import threading

from repro import Domain, PrismSystem, Q, Relation

hospital1 = Relation("hospital1", {
    "disease": ["Cancer", "Cancer", "Heart"],
    "cost": [100, 200, 300],
    "age": [4, 6, 2],
})
hospital2 = Relation("hospital2", {
    "disease": ["Cancer", "Fever", "Fever"],
    "cost": [100, 70, 50],
    "age": [8, 5, 4],
})
hospital3 = Relation("hospital3", {
    "disease": ["Cancer", "Cancer", "Heart"],
    "cost": [300, 700, 500],
    "age": [8, 4, 5],
})

# -- a sharded deployment (2 χ shards; close() joins the thread pool) --------

with PrismSystem.build(
        [hospital1, hospital2, hospital3],
        Domain("disease", ["Cancer", "Fever", "Heart"]),
        "disease", agg_attributes=("cost", "age"),
        with_verification=True, seed=11, num_shards=2) as system:
    with system.client() as client:

        # -- concurrent users: submit() from many threads -------------------
        # hold() pins the scheduler so this demo coalesces deterministically;
        # in steady state the coalescing window does the same job.
        queries = [
            Q.psi("disease"),
            Q.psi("disease").verify(),
            Q.psu("disease"),
            Q.psi("disease").sum("cost"),
        ]
        futures = [None] * len(queries)
        with client.hold():
            def user(slot, query):
                futures[slot] = client.submit(query)
            threads = [threading.Thread(target=user, args=(i, q))
                       for i, q in enumerate(queries)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        print("PSI          ", futures[0].result().values)
        print("PSI verified ", futures[1].result().verified)
        print("PSU          ", sorted(futures[2].result().values))
        print("SUM(cost)    ", futures[3].result().per_value)

        stats = client.stats["scheduler"]
        print(f"\n{stats['submitted']} submissions ran in "
              f"{stats['ticks']} fused tick(s); largest tick fused "
              f"{stats['max_coalesced']} queries")
        kinds = system.transport.stats.messages_by_kind
        fused = {k: v for k, v in kinds.items() if k.startswith("batch:")}
        print("wire streams:", fused)

        # -- EXPLAIN shows plan-level savings before running ----------------
        print("\n", client.explain(Q.psi("disease").sum("cost").avg("age")))

    print(f"\nsharded dispatches: {system._shard_runtime.dispatches} "
          f"(thread pool; bit-identical to the unsharded sweep)")
