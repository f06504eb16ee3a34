"""Compiled kernel tier: fused-sweep throughput, compiled vs numpy.

Not a paper artefact — this benchmark supports the default compiled
backend (:mod:`repro.kernels`).  It times the three fused server
kernels (PSI / Eq. 3, PSU / Eq. 18, aggregation / Eq. 11) plus the raw
counter-mode PRG draw rate as *single-shard* sweeps with the tier off
(the numpy reference) and on (the C backend), and reports rows per
second plus the compiled-over-numpy speedup.

Run as a script (the CI smoke invocation uses a tiny domain)::

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --domain 100000 --out BENCH_kernels.json

Single-shard is the honest comparison: sharding helps both backends
equally (see ``bench_sharding.py``), while this measures the per-row
arithmetic alone.  Output is machine-readable JSON::

    {"b": ..., "num_owners": ..., "backend": "c",
     "rows_per_sec": {"numpy": {"psi": ..., ...}, "c": {...}},
     "speedup": {"psi": ..., "psu": ..., "agg": ..., "prg": ...}}

Expected shape: the hash-bound families win big — PSU's Eq. 18 mask
stream and the raw PRG draws clear 5x on hosts with SHA-NI (the C
tier detects it at runtime; without it, expect ~1.5x against OpenSSL's
own hardware SHA).  Aggregation clears 5x through the division-free
Mersenne-31 reduction.  The plain PSI sweep is memory-bound and lands
near 2x — it is included to keep the crossover (NATIVE_MIN_SPAN)
honest, not to showcase the tier.  When the backend cannot build
(``"backend": "numpy"``), both columns measure the reference and every
speedup is ~1.0.
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
from repro.core.sharding import ShardPlan
from repro.crypto.prg import SeededPRG

FAMILIES = ("psi", "psu", "agg", "prg")


def best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def measure_families(system, repeats: int) -> dict[str, float]:
    """Single-shard wall time per kernel family under the active mode."""
    server = system.servers[0]
    shamir_server = system.servers[2]
    b = system.domain.size
    plan = ShardPlan(1)
    z = SeededPRG(123, "bench-z").integers(b, 0, system.initiator.field_prime)
    z_matrix = np.asarray([z], dtype=np.int64)

    def run_psi():
        server.psi_round_batch(["OK"], shard_plan=plan)

    def run_psu():
        server.psu_round_batch(["OK"], [system.next_nonce()],
                               shard_plan=plan)

    def run_agg():
        shamir_server.aggregate_round_batch(["DT"], z_matrix, shard_plan=plan)

    prg = SeededPRG(42, "bench-prg")

    def run_prg():
        prg.integers(b, 1, 2039)

    runs = {"psi": run_psi, "psu": run_psu, "agg": run_agg, "prg": run_prg}
    for warmup in runs.values():  # build the library + fill caches
        warmup()
    return {family: best_of(fn, repeats) for family, fn in runs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain", type=int, default=100_000,
                        help="χ length b (default: 10^5)")
    parser.add_argument("--owners", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_kernels.json")
    args = parser.parse_args(argv)

    system = build_system(num_owners=args.owners, domain_size=args.domain,
                          agg_attributes=("DT",), seed=7)
    b = system.domain.size
    backend = kernels.configure("c")  # "numpy" when the tier can't build
    print(f"kernel tier throughput at b={b}, {args.owners} owners, "
          f"{os.cpu_count()} cores, backend={backend} "
          f"(best of {args.repeats})")

    seconds: dict[str, dict[str, float]] = {}
    for mode in ("off", "c"):
        active = kernels.configure(mode)
        label = "numpy" if mode == "off" else active
        seconds[label] = measure_families(system, args.repeats)
        line = "  ".join(f"{family} {b / s:12.0f} rows/s"
                         for family, s in seconds[label].items())
        print(f"  {label:6s} {line}")
    kernels.configure(None)
    system.close()

    rows_per_sec = {label: {family: b / s for family, s in timings.items()}
                    for label, timings in seconds.items()}
    compiled_label = backend if backend in rows_per_sec else "numpy"
    speedup = {family: (seconds["numpy"][family]
                        / seconds[compiled_label][family])
               for family in FAMILIES}
    for family in FAMILIES:
        print(f"  {family}: {speedup[family]:.2f}x")

    report = {
        "b": b,
        "num_owners": args.owners,
        "cpu_count": os.cpu_count(),
        "repeats": args.repeats,
        "backend": backend,
        "rows_per_sec": rows_per_sec,
        "speedup": speedup,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
