"""Compiled kernel tier: fused-sweep throughput, compiled vs numpy.

Not a paper artefact — this benchmark supports the default compiled
backend (:mod:`repro.kernels`).  It times the three fused server
kernels (PSI / Eq. 3, PSU / Eq. 18, aggregation / Eq. 11), the raw
counter-mode PRG draw rate, the two owner equations (``combine``:
an owner deals 3 Shamir shares of a column and interpolates a degree-2
output, §3.1; ``mulmod``: PSI finalisation's Eq. 4 product of two
uint16 streams) and the initiator's Fisher–Yates (``shuffle``: the
swaps behind one dealt §4 permutation of length b, fed pre-drawn
draws, so the C span is timed against the Python loop alone) as
*single-shard* sweeps with the tier off (the numpy
reference) and on (the C backend), and reports rows per second plus
the compiled-over-numpy speedup.

Run as a script (the CI smoke invocation uses a tiny domain)::

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --domain 100000 --out BENCH_kernels.json

Single-shard is the honest comparison: sharding helps both backends
equally (see ``bench_sharding.py``), while this measures the per-row
arithmetic alone.  Output is machine-readable JSON::

    {"b": ..., "num_owners": ..., "cpu_count": ...,
     "cpu_flags": {"sha_ni": ..., "avx512dq": ...}, "backend": "c",
     "rows_per_sec": {"numpy": {"psi": ..., ...}, "c": {...}},
     "speedup": {"psi": ..., "psu": ..., "agg": ..., "prg": ...,
                 "combine": ..., "mulmod": ..., "shuffle": ...}}

Every operand is at the width of its modulus (uint8 χ shares, uint16
group elements, uint32 field elements), as the server stores them.

Expected shape: the hash-bound families win big — PSU's Eq. 18 mask
stream and the raw PRG draws clear 10x on hosts with SHA-NI (the C
tier detects it at runtime and hashes four stream blocks at a time;
without it, expect ~1.5x against OpenSSL's own hardware SHA).  The
report records the host's ``sha_ni`` / ``avx512dq`` flags beside
``cpu_count``.  Servers keep owner-summed vectors, so the ``psi``,
``psu`` and ``agg`` families time one-vector rows after their first
repeat.  Aggregation gains through the division-free Mersenne-31
reduction.  The PSI sweep gathers each summed uint8 share from a folded
table, with no division per cell, in both tiers.  ``combine`` includes
dealing's int64 coefficient
draws, which are numpy in both tiers, so it gains less than the
arithmetic alone.  ``shuffle`` replaces an interpreted loop of b
swaps, so it gains the most: two orders of magnitude.  When the backend cannot build
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
from repro.crypto.prg import SeededPRG, numpy_shuffle

FAMILIES = ("psi", "psu", "agg", "prg", "combine", "mulmod", "shuffle")


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
    z = SeededPRG(123, "bench-z").integers(b, 0, system.initiator.field_prime)
    # Indicator shares travel at the field prime's width (uint32).
    z_matrix = np.asarray([z], dtype=shamir_server.params.shamir_dtype)

    def run_psi():
        server.psi_round_batch(["OK"], num_shards=1)

    def run_psu():
        server.psu_round_batch(["OK"], [system.next_nonce()], num_shards=1)

    def run_agg():
        shamir_server.aggregate_round_batch(["DT"], z_matrix, num_shards=1)

    prg = SeededPRG(42, "bench-prg")

    def run_prg():
        prg.integers(b, 1, 2039)

    owner = system.owners[0]
    column = np.asarray(z, dtype=np.uint32)
    outputs = [np.asarray(s, dtype=np.uint32)
               for s in owner.shamir_shares_of(column)]
    eta_prime = server.params.group.eta_prime
    streams = [SeededPRG(5, f"bench-fop-{i}").integers(b, 0, eta_prime)
               .astype(server.params.group_dtype) for i in (1, 2)]

    def run_combine():
        owner.shamir_shares_of(column)
        owner.finalize_aggregate(outputs)

    def run_mulmod():
        owner.finalize_psi(*streams)

    draws = SeededPRG(9, "bench-shuffle").integers(b - 1, 0, 2**63 - 1)

    def run_shuffle():
        indices = np.arange(b, dtype=np.int64)
        (kernels.shuffle(draws, indices) or numpy_shuffle(draws, indices))()

    runs = {"psi": run_psi, "psu": run_psu, "agg": run_agg, "prg": run_prg,
            "combine": run_combine, "mulmod": run_mulmod,
            "shuffle": run_shuffle}
    for warmup in runs.values():  # build the library + fill caches
        warmup()
    return {family: best_of(fn, repeats) for family, fn in runs.items()}


def cpu_flags() -> dict[str, bool] | None:
    """Whether the host's CPU reports ``sha_ni`` and ``avx512dq`` (the C
    tier picks its SHA-NI stream generator and AVX-512 spans by CPUID),
    or ``None`` where ``/proc/cpuinfo`` cannot be read."""
    try:
        with open("/proc/cpuinfo") as handle:
            flags = next((line.split(":", 1)[1].split() for line in handle
                          if line.startswith("flags")), [])
    except OSError:
        return None
    return {name: name in flags for name in ("sha_ni", "avx512dq")}


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
    flags = cpu_flags()
    print(f"kernel tier throughput at b={b}, {args.owners} owners, "
          f"{os.cpu_count()} cores, cpu flags {flags}, backend={backend} "
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
        "cpu_flags": flags,
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
