"""Fault-recovery figures: failover latency, recovery-to-warm, degraded cost.

Not a paper artefact — this benchmark supports the self-healing layer
(:mod:`repro.network.dispatch` + :mod:`repro.network.supervisor`).  It
runs one fixed batchable workload against a supervised pooled-tcp
deployment (two replica hosts per server role) and reports:

* ``failover_latency_s`` — wall-clock of the first query pass issued
  *after* SIGKILLing one pool member: the price of losing in-flight
  frames, ejecting the dead seat, and retransmitting to the survivor;
* ``degraded_qps`` vs ``healthy_qps`` — steady-state throughput with
  the pool down one member (supervisor paused) against the full pool;
* ``recovery_s`` — resuming the supervisor, how long until the seat is
  respawned, journal-replayed warm, rejoined, and the pool reports
  ``ok`` again (plus the supervisor's own respawn→rejoin figure);
* ``recovered_qps`` — throughput after recovery, which should sit back
  at the healthy figure.

Run as a script (the CI smoke uses a tiny domain)::

    PYTHONPATH=src python benchmarks/bench_faults.py \
        --domain 4000 --repeats 3 --out BENCH_faults.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from repro import Q
from repro.bench.harness import build_system
from repro.network.host import (
    launch_forked_pools,
    pools_spec,
    processes_available,
)
from repro.network.supervisor import HostSupervisor

POOL_SIZE = 2


def workload(queries_per_kind: int) -> list[Q]:
    """The bench_deployment batchable mix, identical across phases."""
    kinds = [
        Q.psi("OK"),
        Q.psu("OK"),
        Q.psi("OK").count(),
        Q.psu("OK").count(),
        Q.psi("OK").sum("DT"),
        Q.psi("OK").avg("DT"),
    ]
    return kinds * queries_per_kind


def time_passes(system, queries, repeats: int) -> float:
    """Best wall-clock over ``repeats`` passes of the workload."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        results = system.executor.execute_many(queries)
        best = min(best, time.perf_counter() - start)
        assert len(results) == len(queries)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain", type=int, default=4_000,
                        help="χ length b (default: 4*10^3)")
    parser.add_argument("--owners", type=int, default=5)
    parser.add_argument("--queries-per-kind", type=int, default=2,
                        help="workload size: N of each batchable kind")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_faults.json")
    args = parser.parse_args(argv)
    if not processes_available():
        print("fork unavailable: the fault bench needs forked entity hosts")
        return 0

    queries = workload(args.queries_per_kind)
    print(f"fault recovery at b={args.domain}, {args.owners} owners, "
          f"{len(queries)} queries/pass (best of {args.repeats}), "
          f"pools of {POOL_SIZE}")

    pools, processes = launch_forked_pools([POOL_SIZE] * 3)
    supervisor = None
    try:
        system = build_system(
            num_owners=args.owners, domain_size=args.domain,
            agg_attributes=("DT",), seed=7,
            deployment=pools_spec(pools), rpc_timeout=120.0)
        supervisor = HostSupervisor(system, pools, processes,
                                    poll_interval=0.05).start()
        system.executor.execute_many(queries[:6])  # warm caches / channels / pools

        healthy = time_passes(system, queries, args.repeats)

        # Kill one member of role 0's pool with the supervisor paused,
        # so the failover and degraded figures are not polluted by a
        # concurrent respawn.
        supervisor.pause()
        victim = supervisor.process_for(0, POOL_SIZE - 1)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10)
        start = time.perf_counter()
        results = system.executor.execute_many(queries)
        failover_latency = time.perf_counter() - start
        assert len(results) == len(queries)
        assert system.pool_health()["status"] == "degraded"

        degraded = time_passes(system, queries, args.repeats)

        # Resume supervision and time the full heal: respawn, journal
        # replay, warm rejoin, health back to ok.
        respawns_before = supervisor.stats["respawns"]
        start = time.perf_counter()
        supervisor.resume()
        deadline = start + 120.0
        while time.perf_counter() < deadline:
            if (supervisor.stats["respawns"] > respawns_before
                    and system.pool_health()["status"] == "ok"):
                break
            time.sleep(0.02)
        recovery = time.perf_counter() - start
        health = system.pool_health()
        assert health["status"] == "ok", health

        recovered = time_passes(system, queries, args.repeats)

        channel = system._channels[0]
        report = {
            "b": args.domain,
            "num_owners": args.owners,
            "cpu_count": os.cpu_count(),
            "pool_size": POOL_SIZE,
            "queries_per_pass": len(queries),
            "repeats": args.repeats,
            "healthy_qps": len(queries) / healthy,
            "failover_latency_s": failover_latency,
            "degraded_qps": len(queries) / degraded,
            "recovery_s": recovery,
            "respawn_to_warm_s": supervisor.stats["last_recovery_seconds"],
            "recovered_qps": len(queries) / recovered,
            "channel": {
                "failovers": channel.health()["failovers"],
                "retransmits": channel.health()["retransmits"],
                "ejections": channel.health()["ejections"],
                "rejoins": channel.health()["rejoins"],
            },
            "supervisor": supervisor.stats,
        }
        system.close()
    finally:
        if supervisor is not None:
            supervisor.close()
        for process in processes:
            process.terminate()
        for process in processes:
            process.join(timeout=10)

    print(f"  healthy   {report['healthy_qps']:8.1f} q/s")
    print(f"  failover  {report['failover_latency_s'] * 1e3:8.1f} ms "
          f"(first pass after SIGKILL)")
    print(f"  degraded  {report['degraded_qps']:8.1f} q/s "
          f"({report['degraded_qps'] / report['healthy_qps']:.0%} of healthy)")
    print(f"  recovery  {report['recovery_s'] * 1e3:8.1f} ms to warm + ok "
          f"(respawn→rejoin {report['respawn_to_warm_s'] * 1e3:.1f} ms)")
    print(f"  recovered {report['recovered_qps']:8.1f} q/s")

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
