"""Multi-tenant serving: two tenants, named datasets, concurrent sessions.

Starts one resident :class:`repro.Gateway` owning a Prism deployment,
then drives it the way a shared serving tier is used:

* tenant **alpha** registers the hospital dataset once (Phase-1
  outsourcing happens here, and never again) — private by default —
  plus a second dataset shared with every tenant;
* tenant **beta** gets a typed :class:`repro.AuthError` for the private
  dataset, but queries the shared one by its qualified name;
* eight concurrent sessions (four per tenant) then hammer the shared
  dataset at once: the gateway coalesces their in-flight submissions
  into fused batch ticks — visible in the ``stats`` RPC — while every
  session still receives exactly the result a direct
  :class:`repro.PrismClient` over the same data produces.

Run:  python examples/multi_tenant_gateway.py
"""

from __future__ import annotations

import threading

from repro import AuthError, Domain, Gateway, GatewayClient, Relation

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
RELATIONS = [hospital1, hospital2, hospital3]
DOMAIN = Domain("disease", ["Cancer", "Fever", "Heart"])

PSI_SQL = ("SELECT disease FROM h1 INTERSECT SELECT disease FROM h2 "
           "INTERSECT SELECT disease FROM h3")
SUM_SQL = ("SELECT disease, SUM(cost) FROM h1 INTERSECT "
           "SELECT disease, SUM(cost) FROM h2 INTERSECT "
           "SELECT disease, SUM(cost) FROM h3")


def main() -> None:
    gateway = Gateway({"tok-alpha": "alpha", "tok-beta": "beta"}).start()
    try:
        print(f"gateway listening on 127.0.0.1:{gateway.port}")

        # -- tenant alpha registers datasets (outsourced exactly once) --------
        with GatewayClient("127.0.0.1", gateway.port, "tok-alpha") as alpha:
            alpha.register("hospital", RELATIONS, DOMAIN, "disease",
                           agg_attributes=("cost",), seed=11)
            alpha.register("registry", RELATIONS, DOMAIN, "disease",
                           agg_attributes=("cost",), seed=11, shared=True)
            print(f"alpha sees datasets: {alpha.datasets()}")

            members = alpha.execute(PSI_SQL, dataset="hospital")
            common = sorted(v for v, hit in zip(members.values,
                                                members.membership) if hit)
            print(f"alpha PSI on its private dataset: {common}")

        # -- tenant beta: isolation is typed, sharing is explicit -------------
        with GatewayClient("127.0.0.1", gateway.port, "tok-beta") as beta:
            print(f"beta sees datasets: {beta.datasets()}")
            try:
                beta.execute(PSI_SQL, dataset="alpha/hospital")
            except AuthError as exc:
                print(f"beta refused on the private dataset: {exc}")
            sums = beta.execute(SUM_SQL, dataset="alpha/registry")
            print(f"beta SUM(cost) on the shared dataset: {sums.per_value}")

        # -- eight concurrent sessions fuse on the shared dataset -------------
        def session(worker: int) -> None:
            token = "tok-alpha" if worker % 2 == 0 else "tok-beta"
            with GatewayClient("127.0.0.1", gateway.port, token,
                               dataset="alpha/registry") as client:
                for _ in range(4):
                    client.execute(PSI_SQL)

        threads = [threading.Thread(target=session, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        with GatewayClient("127.0.0.1", gateway.port, "tok-alpha") as alpha:
            stats = alpha.gateway_stats()
            shared = stats["datasets"]["alpha/registry"]
            scheduler = shared["scheduler"]
            print(f"sessions served: {stats['gateway']['sessions_total']}")
            print(f"shared-dataset queries by tenant: "
                  f"{shared['queries_by_tenant']}")
            # Tick counts depend on thread timing; print run-invariant
            # facts only, so the example's output diffs cleanly.
            print(f"coalescing: {scheduler['submitted']} submissions, "
                  f"fused into fewer ticks: "
                  f"{scheduler['ticks'] < scheduler['submitted']}")
            assert scheduler["max_coalesced"] >= 2
    finally:
        gateway.shutdown()
    print("gateway drained and stopped")


if __name__ == "__main__":
    main()
