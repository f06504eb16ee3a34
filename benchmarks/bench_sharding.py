"""Sharded kernel throughput: rows/s vs. χ shard count.

Not a paper artefact — this benchmark supports the sharded execution
layer (:mod:`repro.core.sharding`).  It times the three fused server
kernels (PSI / Eq. 3, PSU / Eq. 18, aggregation / Eq. 11) as
*single-query* sweeps at each shard count and reports throughput in χ
rows (cells) per second, plus the speedup over the unsharded sweep.

Run as a script (the CI smoke invocation uses a tiny domain)::

    PYTHONPATH=src python benchmarks/bench_sharding.py \
        --domain 100000 --shards 1,2,4 --out BENCH_sharding.json

The default b = 10^5 is the scale at which the sharding claim is
checked; shard counts beyond the usable CPU count mostly measure the
per-span thread hand-off.  Shards run on the deployment's thread pool
(:class:`~repro.core.sharding.ShardRuntime`) under both kernel tiers:
``c`` (the compiled sweeps, GIL released per C call) and ``numpy``
(the reference kernels, ``REPRO_KERNELS=off``).  Output is
machine-readable JSON::

    {"b": ..., "num_owners": ..., "cpu_count": ..., "usable_cpus": ...,
     "rows_per_sec": {"c": {"psi": {"1": ..., "4": ...}, ...},
                      "numpy": {...}},
     "speedup_vs_unsharded": {"c": {...}, "numpy": {...},
                              "best": {"psi": {"4": ...}, ...}}}

Expected shape: on an N-core runner the compiled kernels approach Nx
throughput at N shards (the sweeps are embarrassingly parallel, and the
PSU mask streams are derived span-locally via the seekable PRG).  The
numpy PSU sweep draws its masks serially before the parallel part, so
its speedup stays small.  On a single core every tier measures pure
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro import kernels
from repro.bench.harness import build_system
from repro.core.sharding import usable_cpus
from repro.crypto.prg import SeededPRG


def best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def measure_kernels(system, num_shards: int,
                    repeats: int) -> dict[str, float]:
    """Single-query wall time per kernel family at one shard count."""
    server = system.servers[0]
    shamir_server = system.servers[2]
    b = system.domain.size
    z = SeededPRG(123, "bench-z").integers(b, 0, system.initiator.field_prime)
    z_matrix = np.asarray([z], dtype=shamir_server.params.shamir_dtype)

    def run_psi():
        server.psi_round_batch(["OK"], num_shards=num_shards)

    def run_psu():
        server.psu_round_batch(["OK"], [system.next_nonce()],
                               num_shards=num_shards)

    def run_agg():
        shamir_server.aggregate_round_batch(["DT"], z_matrix,
                                            num_shards=num_shards)

    for warmup in (run_psi, run_psu, run_agg):  # start the pool, fill caches
        warmup()
    return {
        "psi": best_of(run_psi, repeats),
        "psu": best_of(run_psu, repeats),
        "agg": best_of(run_agg, repeats),
    }


def speedups(series_by_family: dict[str, dict[str, float]]) -> dict:
    return {
        family: {
            shards: value / series["1"]
            for shards, value in series.items() if shards != "1"
        }
        for family, series in series_by_family.items() if "1" in series
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain", type=int, default=100_000,
                        help="χ length b (default: 10^5)")
    parser.add_argument("--owners", type=int, default=10)
    parser.add_argument("--shards", default="1,2,4",
                        help="comma-separated shard counts (default 1,2,4)")
    parser.add_argument("--tiers", default="c,numpy",
                        help="comma-separated kernel tiers (default c,numpy)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_sharding.json")
    args = parser.parse_args(argv)
    shard_counts = [int(s) for s in args.shards.split(",")]
    requested = args.tiers.split(",")

    system = build_system(num_owners=args.owners, domain_size=args.domain,
                          agg_attributes=("DT",), seed=7)
    b = system.domain.size
    print(f"sharding throughput at b={b}, {args.owners} owners, "
          f"{usable_cpus()} of {os.cpu_count()} cores usable "
          f"(best of {args.repeats})")

    rows_per_sec: dict[str, dict[str, dict[str, float]]] = {}
    try:
        for tier in requested:
            if kernels.configure("off" if tier == "numpy" else tier) != tier:
                print(f"  {tier:5s} tier unavailable on this host; skipped")
                continue
            rows_per_sec[tier] = {}
            for num_shards in shard_counts:
                timings = measure_kernels(system, num_shards, args.repeats)
                for family, seconds in timings.items():
                    rows_per_sec[tier].setdefault(
                        family, {})[str(num_shards)] = b / seconds
                line = "  ".join(f"{family} {b / s:12.0f} rows/s"
                                 for family, s in timings.items())
                print(f"  {tier:5s} shards={num_shards:<3d} {line}")
    finally:
        kernels.configure(None)
        system.close()
    tiers = list(rows_per_sec)

    speedup = {tier: speedups(series) for tier, series in rows_per_sec.items()}
    speedup["best"] = {
        family: {
            str(shards): max(
                speedup[tier].get(family, {}).get(str(shards), 0.0)
                for tier in tiers
            )
            for shards in shard_counts if shards != 1
        }
        for family in ("psi", "psu", "agg")
    }
    report = {
        "b": b,
        "num_owners": args.owners,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "shard_counts": shard_counts,
        "tiers": tiers,
        "repeats": args.repeats,
        "rows_per_sec": rows_per_sec,
        "speedup_vs_unsharded": speedup,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
