"""Batched multi-query execution: per-query latency amortisation.

Not a paper artefact — this benchmark supports the serving-engine
extension (:meth:`Executor.execute_many`): N concurrent queries fused
into one server sweep per kernel family instead of N independent sweeps
(the baseline runs one unfused ``Executor.execute`` per query).

Expected shape: batches dominated by indicator sweeps (PSI / counts) and
by overlapping aggregations amortise ~3-4x per query, because fused rows
deduplicate and dealt indicator shares come out of the cache; PSU-heavy
batches amortise least, because each PSU query must derive a fresh
per-nonce mask stream (Eq. 18 freshness) regardless of batching.

The domain floor here is 10^4 cells (override upward with
``REPRO_BENCH_DOMAIN``), the scale at which the amortisation claim is
checked.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import Q
from repro.bench.harness import build_system


def batch_domain() -> int:
    return max(10_000, int(os.environ.get("REPRO_BENCH_DOMAIN", "0") or 0))


@pytest.fixture(scope="module")
def system():
    """10 owners over >= 10^4 cells with two aggregation columns."""
    return build_system(num_owners=10, domain_size=batch_domain(), seed=7,
                       agg_attributes=("DT", "PK"))


MIXED_QUERIES = [
    Q.psi("OK"),
    Q.psi("OK").count(),
    Q.psi("OK"),
    Q.psi("OK").count(),
    Q.psu("OK"),
    Q.psu("OK").count(),
    Q.psi("OK").sum("DT"),
    Q.psi("OK").avg("PK"),
    Q.psi("OK").sum("PK"),
    Q.psi("OK"),
]

SET_QUERIES = [
    Q.psi("OK"),
    Q.psi("OK").count(),
] * 5

AGG_QUERIES = [
    Q.psi("OK").sum("DT"),
    Q.psi("OK").sum("PK"),
    Q.psi("OK").avg("DT"),
    Q.psi("OK").avg("PK"),
] * 2


def run_sequential(system, queries):
    """One unfused batch-of-one per query."""
    return [system.executor.execute(q) for q in queries]


def run_fused(system, queries):
    return system.executor.execute_many(queries)


def test_sequential_loop_mixed(benchmark, system):
    benchmark.group = "batch-mixed"
    benchmark(run_sequential, system, MIXED_QUERIES)


def test_fused_batch_mixed(benchmark, system):
    benchmark.group = "batch-mixed"
    benchmark(run_fused, system, MIXED_QUERIES)


def test_sequential_loop_set_queries(benchmark, system):
    benchmark.group = "batch-set"
    benchmark(run_sequential, system, SET_QUERIES)


def test_fused_batch_set_queries(benchmark, system):
    benchmark.group = "batch-set"
    benchmark(run_fused, system, SET_QUERIES)


def test_sequential_loop_aggregations(benchmark, system):
    benchmark.group = "batch-agg"
    benchmark(run_sequential, system, AGG_QUERIES)


def test_fused_batch_aggregations(benchmark, system):
    benchmark.group = "batch-agg"
    benchmark(run_fused, system, AGG_QUERIES)


def test_batch_amortization_report(system, capsys):
    """Results identical; fused batches amortise per-query latency.

    Prints a small per-mix table (visible with ``pytest -s``) and asserts
    the headline claim: at b >= 10^4 the fused path is not slower than
    the sequential loop on any mix, and strictly faster on the
    sweep-dominated mixes.
    """

    def best_of(fn, repeats=3):
        times = []
        for _ in range(repeats):
            system.transport.reset()
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    speedups = {}
    with capsys.disabled():
        print(f"\nbatch amortisation at b={batch_domain()} "
              f"(best of 3, {len(MIXED_QUERIES)} queries/mix)")
        for name, queries in (("mixed", MIXED_QUERIES),
                              ("set-heavy", SET_QUERIES),
                              ("agg-heavy", AGG_QUERIES)):
            seq = best_of(lambda: run_sequential(system, queries))
            fused = best_of(lambda: run_fused(system, queries))
            speedups[name] = seq / fused
            print(f"  {name:10s} sequential {seq / len(queries) * 1e3:7.2f} "
                  f"ms/query   fused {fused / len(queries) * 1e3:7.2f} "
                  f"ms/query   speedup {seq / fused:5.2f}x")

    run_fused(system, MIXED_QUERIES)
    assert system.executor.last_dispatch["rows_deduplicated"] > 0
    # Sweep-dominated mixes must show clear per-query amortisation; the
    # mixed bound stays loose because PSU mask streams are per-query.
    assert speedups["set-heavy"] > 1.5
    assert speedups["agg-heavy"] > 1.5
    assert speedups["mixed"] > 0.9
