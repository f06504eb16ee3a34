"""Fig. 3 — operation latency vs server thread count (Exp 1).

Paper shape: each operation's time is roughly flat-to-decreasing in the
thread count until I/O dominates; Count ≈ PSI; Sum/Avg ≈ 2× PSI; the
data-fetch time stays constant.
"""

import pytest

THREAD_COUNTS = (1, 2, 4)
OPERATIONS = ("PSI", "PSU", "PSI Count", "PSI Sum", "PSI Avg")


def _run(system, op, threads):
    # A server thread is one span of the deployment's shard runtime.
    if op == "PSI":
        return system.psi("OK", num_shards=threads)
    if op == "PSU":
        return system.psu("OK", num_shards=threads)
    if op == "PSI Count":
        return system.psi_count("OK", num_shards=threads)
    if op == "PSI Sum":
        return system.psi_sum("OK", "DT", num_shards=threads)
    return system.psi_average("OK", "DT", num_shards=threads)


@pytest.mark.parametrize("threads", THREAD_COUNTS)
@pytest.mark.parametrize("op", OPERATIONS)
def test_fig3_operation_vs_threads(benchmark, system10, op, threads):
    benchmark.group = f"fig3:{op}"
    benchmark(_run, system10, op, threads)


@pytest.mark.parametrize("threads", THREAD_COUNTS)
def test_fig3_data_fetch(benchmark, system10, threads):
    """The flat 'Data Fetch Time' line of Fig. 3."""
    benchmark.group = "fig3:fetch"
    server = system10.servers[0]
    benchmark(server.fetch_additive, "OK")
