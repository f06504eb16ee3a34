"""Deployment-channel throughput: the same workload over local /
subprocess / shm / tcp channels.

Not a paper artefact — this benchmark supports the pluggable-deployment
layer (:mod:`repro.network.rpc`).  It runs one fixed mixed workload
(PSI, PSU, counts, SUM — the batchable Table-4 kinds, fused per tick by
``Executor.execute_many``) against the *same* data under each deployment mode and
reports:

* ``rows_per_sec`` — χ cells swept per second (b × kernel rows /
  wall-clock), the serving-throughput figure;
* ``queries_per_sec`` — end-to-end query throughput;
* ``wire_bytes`` — actual framed bytes on the deployment channels
  (zero for ``local``, which moves no bytes) plus the transport-model
  bytes, so the cost of leaving the process is visible.

Run as a script (the CI smoke uses a tiny domain)::

    PYTHONPATH=src python benchmarks/bench_deployment.py \
        --domain 20000 --repeats 3 --out BENCH_deployment.json

Expected shape: ``local`` sets the in-process baseline; ``subprocess``
pays one codec round-trip per RPC over a pipe; ``shm`` moves the share
vectors of those frames through shared-memory arenas instead; ``tcp``
adds loopback socket hops.  The tcp hosts axis runs pools of replica
hosts per role: each round is still one frame per server, sent to the
least-loaded member.  The batched engine keeps the RPC count per tick constant
(a handful of fused sweeps, not one call per query), which is what
makes remote serving viable at all — the gap between modes is the
price of the wire, not of the query count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import Q
from repro.bench.harness import build_system
from repro.network.host import (
    launch_forked_pools,
    pools_spec,
    processes_available,
)


def workload(queries_per_kind: int) -> list[Q]:
    """A mixed batchable workload, identical across deployment modes."""
    kinds = [
        Q.psi("OK"),
        Q.psu("OK"),
        Q.psi("OK").count(),
        Q.psu("OK").count(),
        Q.psi("OK").sum("DT"),
        Q.psi("OK").avg("DT"),
    ]
    return kinds * queries_per_kind


def bench_mode(mode: str, spec: str, args) -> dict:
    """Time the workload under one deployment mode; returns the report."""
    system = build_system(num_owners=args.owners, domain_size=args.domain,
                          agg_attributes=("DT",), seed=7,
                          deployment=spec)
    queries = workload(args.queries_per_kind)
    system.executor.execute_many(queries[:6])  # warm caches / channels / pools
    wire_before = system.channel_stats()
    model_before = system.transport.stats.total_bytes
    best = float("inf")
    for _ in range(args.repeats):
        start = time.perf_counter()
        results = system.executor.execute_many(queries)
        best = min(best, time.perf_counter() - start)
        assert len(results) == len(queries)
    wire_after = system.channel_stats()
    model_bytes = system.transport.stats.total_bytes - model_before
    # Kernel rows per workload pass: each query contributes one
    # indicator row; SUM adds an Eq. 11 row, AVG adds two (sum + count).
    rows = args.queries_per_kind * (6 + 1 + 2)
    report = {
        "seconds": best,
        "queries_per_sec": len(queries) / best,
        "rows_per_sec": rows * system.domain.size / best,
        "wire_bytes": {
            "sent": (wire_after["bytes_sent"] - wire_before["bytes_sent"])
            // args.repeats,
            "received": (wire_after["bytes_received"]
                         - wire_before["bytes_received"]) // args.repeats,
            "model": model_bytes // max(1, args.repeats),
        },
        "rpc_requests": (wire_after["requests"] - wire_before["requests"])
        // args.repeats,
    }
    pools = [channel.stats.get("pool_size", 1)
             for channel in system._channels]
    if any(size > 1 for size in pools):
        report["hosts_per_role"] = pools
    system.close()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain", type=int, default=20_000,
                        help="χ length b (default: 2*10^4)")
    parser.add_argument("--owners", type=int, default=5)
    parser.add_argument("--queries-per-kind", type=int, default=4,
                        help="workload size: N of each batchable kind")
    parser.add_argument("--modes", default="local,subprocess,shm,tcp",
                        help="comma-separated deployment modes")
    parser.add_argument("--hosts", default="1,2,3",
                        help="tcp hosts axis: comma-separated pool sizes "
                             "(replica hosts per server role)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_deployment.json")
    args = parser.parse_args(argv)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not processes_available():
        modes = [m for m in modes if m == "local"]
        print("fork unavailable: only the local mode can run here")

    print(f"deployment throughput at b={args.domain}, {args.owners} owners, "
          f"{len(workload(args.queries_per_kind))} queries/pass "
          f"(best of {args.repeats})")
    pool_sizes = [int(h) for h in args.hosts.split(",") if h.strip()]
    reports: dict[str, dict] = {}
    for mode in modes:
        # The tcp mode sweeps the hosts axis: each entry launches one
        # pool of that many replica entity hosts per server role, which
        # share the role's frames.
        runs = ([(mode if h == 1 else f"tcp-{h}hosts", h)
                 for h in pool_sizes] if mode == "tcp" else [(mode, 0)])
        for label, hosts in runs:
            host_processes = []
            spec = mode
            try:
                if hosts:
                    pools, host_processes = launch_forked_pools([hosts] * 3)
                    spec = pools_spec(pools)
                reports[label] = bench_mode(label, spec, args)
            finally:
                for process in host_processes:
                    process.terminate()
            r = reports[label]
            print(f"  {label:10s} {r['queries_per_sec']:10.1f} q/s  "
                  f"{r['rows_per_sec']:14.0f} rows/s  "
                  f"{r['wire_bytes']['sent'] + r['wire_bytes']['received']:>12d} "
                  f"wire B/pass")

    if "local" in reports:
        base = reports["local"]["rows_per_sec"]
        for mode, report in reports.items():
            report["relative_to_local"] = report["rows_per_sec"] / base
    if "tcp" in reports:
        base = reports["tcp"]["rows_per_sec"]
        for mode, report in reports.items():
            if "hosts_per_role" in report:
                report["speedup_vs_one_host"] = report["rows_per_sec"] / base

    out = {
        "b": args.domain,
        "num_owners": args.owners,
        "cpu_count": os.cpu_count(),
        "queries_per_pass": len(workload(args.queries_per_kind)),
        "repeats": args.repeats,
        "modes": reports,
    }
    with open(args.out, "w") as handle:
        json.dump(out, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
