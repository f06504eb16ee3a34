"""Interactive-kernel round throughput: rounds/s versus shard count,
local versus TCP entity hosts.

Not a paper artefact — this benchmark supports the shard-parallel
interactive redesign (:mod:`repro.core.interactive`).  The interactive
kinds are round-bound: MAX/MIN/MEDIAN pay one sharded Eq. 3 sweep (the
PSI round) plus per-common-value announcer rounds, and bucketized PSI
pays one sharded cell-restricted sweep per bucket-tree level.  This
benchmark measures the protocol-round rate of a fixed interactive
workload per ``num_shards`` and per deployment mode and reports:

* ``rounds_per_sec`` — protocol rounds completed per second (the
  serving figure for interactive traffic);
* ``queries_per_sec`` — end-to-end interactive query throughput;
* ``psi_rows_per_sec`` — χ cells swept per second across the round-1 /
  per-level sweeps, the part sharding actually parallelises.

Run as a script (the CI smoke uses a tiny domain)::

    PYTHONPATH=src python benchmarks/bench_interactive.py \
        --domain 20000 --shards 1,2,4 --out BENCH_interactive.json

Expected shape: the sweep component scales with shards like
``bench_sharding.py`` measures, while the announcer rounds (tiny,
owner-count-bound) stay flat — so rounds/s improves with shards only as
far as sweeps dominate, and the tcp mode pays one framed RPC per sweep
on top.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.bench.harness import build_system
from repro.core.interactive import (
    BucketizedPsiProgram,
    ExtremaProgram,
    MedianProgram,
)
from repro.network.host import launch_forked_hosts, processes_available


def programs_for(system):
    """The fixed interactive workload: one program per kind.

    ``shard_plan=None`` means each program runs under the deployment's
    own default plan — exactly what ``num_shards=`` on the system set.
    """
    return [
        ExtremaProgram(system, "OK", "DT", kind="max"),
        ExtremaProgram(system, "OK", "DT", kind="min"),
        MedianProgram(system, "OK", "DT"),
        BucketizedPsiProgram(system, "OK", system.bucket_tree("OK")),
    ]


def bench_mode(mode: str, spec, args) -> dict:
    reports = {}
    for num_shards in args.shard_counts:
        system = build_system(num_owners=args.owners,
                              domain_size=args.domain,
                              agg_attributes=("DT",), seed=7,
                              deployment=spec, num_shards=num_shards)
        system.outsource_bucketized("OK", fanout=8)
        for program in programs_for(system):  # warm pools / channels
            program.run()
        best = float("inf")
        rounds = 0
        queries = len(programs_for(system))
        for _ in range(args.repeats):
            work = programs_for(system)
            start = time.perf_counter()
            total = 0
            for program in work:
                program.run()
                total += program.rounds_completed
            best = min(best, time.perf_counter() - start)
            rounds = total
        # Sweep rows per pass: one χ-length row per extrema/median PSI
        # round plus the bucketized actual-domain-size cells.
        _, stats = system.bucketized_psi("OK")
        sweep_rows = 3 * args.domain + stats["actual_domain_size"]
        reports[num_shards] = {
            "seconds": best,
            "rounds_per_pass": rounds,
            "rounds_per_sec": rounds / best,
            "queries_per_sec": queries / best,
            "psi_rows_per_sec": sweep_rows / best,
        }
        print(f"  {mode:6s} shards={num_shards:<2d} "
              f"{reports[num_shards]['rounds_per_sec']:9.1f} rounds/s  "
              f"{reports[num_shards]['psi_rows_per_sec']:13.0f} swept rows/s")
        system.close()
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain", type=int, default=20_000)
    parser.add_argument("--owners", type=int, default=5)
    parser.add_argument("--shards", default="1,2,4")
    parser.add_argument("--modes", default="local,tcp")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_interactive.json")
    args = parser.parse_args(argv)
    args.shard_counts = [int(s) for s in args.shards.split(",") if s.strip()]
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not processes_available():
        modes = [m for m in modes if m == "local"]
        print("fork unavailable: only the local mode can run here")

    print(f"interactive rounds at b={args.domain}, {args.owners} owners, "
          f"shards {args.shard_counts} (best of {args.repeats})")
    reports: dict[str, dict] = {}
    host_processes = []
    try:
        for mode in modes:
            spec = mode
            if mode == "tcp":
                spec, host_processes = launch_forked_hosts(3)
            reports[mode] = bench_mode(mode, spec, args)
    finally:
        for process in host_processes:
            process.terminate()

    out = {
        "b": args.domain,
        "num_owners": args.owners,
        "cpu_count": os.cpu_count(),
        "shard_counts": args.shard_counts,
        "modes": reports,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
