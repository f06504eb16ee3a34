"""Gateway serving throughput and cross-client fusion vs session count.

Not a paper artefact — this benchmark supports the multi-tenant serving
gateway (:mod:`repro.serving`).  One resident gateway owns a single
outsourced LineItem dataset (registered once, shared across tenants);
``N`` concurrent client sessions — alternating between two tenants —
each run the same mixed batchable workload through real sockets, and
the report captures what multi-client serving buys:

* ``queries_per_sec`` — end-to-end throughput across all sessions;
* ``fusion_ratio`` — mean queries per batch tick of the dataset's
  coalescing scheduler (1.0 = no cross-client fusion; the acceptance
  bar is > 1.5 at 16 clients);
* ``rows_deduplicated`` — χ rows the fused plan skipped because
  concurrent sessions asked for the same sweep;
* ``session_codec`` — the frame bytes and the best encode + decode µs
  of one ``gateway_tcp``-sized answer each: a 2,176-value integer
  ``SetResult`` over b = 4,096 cells, and 2,176-entry
  ``AggregateResult`` maps of int sums and of float averages.  Their
  byte budgets, 8·n + ⌈b/8⌉ + 2048 (the membership travels
  bit-packed) and 16·n + 2048, are what the CI smoke asserts.

Run as a script; this is the command behind the committed
``BENCH_gateway.json`` (the CI smoke uses ``--domain 800 --queries 10``)::

    PYTHONPATH=src python benchmarks/bench_gateway.py \
        --domain 5000 --queries 18 --clients 1,4,16 --out BENCH_gateway.json

Expected shape: one client serializes its queries, so its ratio sits
near 1 and no tick waits; at 16 clients each tick waits (at most the
2 ms coalesce window) for as many queries as the last tick took, so the
ratio climbs well past the bar, while throughput rises
despite every query crossing a socket — the fused tick amortizes the
server sweeps exactly as §8's batch experiments do in-process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

import numpy as np

from repro import Domain, Q
from repro.bench.harness import generate_fleet, lineitem_domain
from repro.core.results import AggregateResult, PhaseTimings, SetResult
from repro.network.codec import FULL_SPAN, decode_frame, encode_frame
from repro.network.rpc import RESULT
from repro.serving import Gateway, GatewayClient
from repro.serving.session import result_from_wire, result_to_wire

TENANTS = {"tok-alpha": "alpha", "tok-beta": "beta"}
DATASET = "alpha/lineitem"

WORKLOAD = [
    Q.psi("OK"),
    Q.psu("OK"),
    Q.psi("OK").count(),
    Q.psu("OK").count(),
    Q.psi("OK").sum("DT"),
    Q.psi("OK").avg("DT"),
]


def run_clients(port: int, num_clients: int, queries_each: int) -> float:
    """Drive ``num_clients`` concurrent sessions; returns wall seconds."""
    barrier = threading.Barrier(num_clients + 1)
    errors: list = []

    def session(worker: int) -> None:
        token = "tok-alpha" if worker % 2 == 0 else "tok-beta"
        try:
            with GatewayClient("127.0.0.1", port, token,
                               dataset=DATASET) as client:
                barrier.wait(timeout=60)
                for index in range(queries_each):
                    client.execute(WORKLOAD[index % len(WORKLOAD)])
        except Exception as exc:  # pragma: no cover - reported below
            errors.append((worker, exc))
            barrier.abort()

    threads = [threading.Thread(target=session, args=(i,))
               for i in range(num_clients)]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)  # all sessions connected: start the clock
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"client sessions failed: {errors}")
    return time.perf_counter() - start


def session_codec(num_cells: int = 4096, num_values: int = 2176,
                  repeats: int = 20) -> dict:
    """Frame bytes and best encode + decode µs of one session answer of
    each shape (the result set of a PSU, of a SUM and of an AVG)."""
    cells = np.sort(np.random.default_rng(5).choice(
        num_cells, num_values, replace=False))
    membership = np.zeros(num_cells, dtype=bool)
    membership[cells] = True
    values = Domain.integer_range("OK", num_cells).values_at(cells)
    timings = PhaseTimings()
    timings.add("server", 1e-3)
    timings.add("owner", 1e-4)
    traffic = {"rounds": 2, "messages": 12, "bytes": 80_000}
    results = {
        "set_result": SetResult(values=values, membership=membership,
                                timings=timings, traffic=traffic),
        "aggregate_result": AggregateResult(
            per_value={v: v * 7919 % 100_003 for v in values},
            timings=timings, traffic=traffic),
        "average_result": AggregateResult(
            per_value={v: v * 7919 % 100_003 / 3 for v in values},
            timings=timings, traffic=traffic),
    }
    report = {"b": num_cells, "n": num_values}
    for name, result in results.items():
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            blob = encode_frame(RESULT, 1, FULL_SPAN, result_to_wire(result))
            result_from_wire(decode_frame(blob).payload)
            best = min(best, time.perf_counter() - start)
        report[name] = {"frame_bytes": len(blob),
                        "encode_decode_us": best * 1e6}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain", type=int, default=5_000,
                        help="χ length b (default: 5000)")
    parser.add_argument("--owners", type=int, default=3)
    parser.add_argument("--queries", type=int, default=18,
                        help="queries per client session")
    parser.add_argument("--clients", default="1,4,16",
                        help="comma-separated session counts")
    parser.add_argument("--out", default="BENCH_gateway.json")
    args = parser.parse_args(argv)
    client_axis = [int(c) for c in args.clients.split(",") if c.strip()]

    domain = lineitem_domain(args.domain)
    rows = max(64, args.domain // 10)
    relations = generate_fleet(args.owners, domain, rows, seed=7)

    gateway = Gateway(TENANTS).start()
    print(f"gateway serving at b={args.domain}, {args.owners} owners, "
          f"{args.queries} queries/session, clients axis {client_axis}")
    reports: dict[str, dict] = {}
    try:
        dataset = gateway.register_dataset(
            "alpha", "lineitem", relations, domain, "OK",
            agg_attributes=("DT",), seed=7, shared=True,
            value_bound=100_000)
        for num_clients in client_axis:
            before = dataset.stats
            seconds = run_clients(gateway.port, num_clients, args.queries)
            after = dataset.stats
            submitted = (after["scheduler"]["submitted"]
                         - before["scheduler"]["submitted"])
            ticks = after["scheduler"]["ticks"] - before["scheduler"]["ticks"]
            deduplicated = (after["fusion"]["rows_deduplicated"]
                            - before["fusion"]["rows_deduplicated"])
            report = {
                "seconds": seconds,
                "queries": submitted,
                "queries_per_sec": submitted / seconds,
                "batch_ticks": ticks,
                "fusion_ratio": submitted / max(1, ticks),
                "rows_deduplicated": deduplicated,
                "max_coalesced": after["scheduler"]["max_coalesced"],
            }
            reports[str(num_clients)] = report
            print(f"  {num_clients:3d} clients  "
                  f"{report['queries_per_sec']:8.1f} q/s  "
                  f"{report['fusion_ratio']:5.2f} queries/tick  "
                  f"{report['rows_deduplicated']:>8d} rows deduped")
    finally:
        gateway.shutdown()

    codec = session_codec()
    for name in ("set_result", "aggregate_result", "average_result"):
        print(f"  {name:16s} {codec[name]['frame_bytes']:>7d} B  "
              f"{codec[name]['encode_decode_us']:8.1f} µs encode+decode")
    out = {
        "b": args.domain,
        "num_owners": args.owners,
        "cpu_count": os.cpu_count(),
        "queries_per_client": args.queries,
        "tenants": sorted(set(TENANTS.values())),
        "clients": reports,
        "session_codec": codec,
    }
    with open(args.out, "w") as handle:
        json.dump(out, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
