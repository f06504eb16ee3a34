"""Ablation benches for the design choices DESIGN.md calls out.

1. Power-table lookup vs per-element modular exponentiation: the server
   kernel's key optimisation (exponents live in [0, delta), so g^e is a
   table lookup).
2. Bucket-tree fanout: communication/examined-nodes trade-off of §6.6.
3. Threading chunk granularity on the Eq. 3 sweep.
"""

import numpy as np
import pytest

from repro.core.bucketized import simulate_actual_domain_size


@pytest.fixture(scope="module")
def kernel_inputs(system10):
    """The server, and its shares for the naive baseline's own sweep."""
    server = system10.servers[0]
    shares = server.fetch_additive("OK")
    return server, shares


def test_ablation_kernel_power_table(benchmark, kernel_inputs):
    benchmark.group = "ablation:kernel"
    server, _ = kernel_inputs
    benchmark(server.psi_round_batch, ["OK"], num_shards=1)


def test_ablation_kernel_direct_modexp(benchmark, kernel_inputs):
    """The naive kernel Prism avoids: pow() per cell."""
    benchmark.group = "ablation:kernel"
    server, shares = kernel_inputs
    params = server.params
    g, eta_prime, delta = (params.group.g, params.group.eta_prime,
                           params.delta)

    def naive():
        total = np.zeros_like(shares[0])
        for s in shares:
            total = (total + s) % delta
        total = (total - params.m_share) % delta
        return np.asarray([pow(g, int(e), eta_prime) for e in total])

    benchmark(naive)


@pytest.mark.parametrize("fanout", (2, 4, 10, 32))
def test_ablation_bucket_fanout(benchmark, fanout):
    benchmark.group = "ablation:fanout"
    benchmark.extra_info["fanout"] = fanout
    actual = benchmark(simulate_actual_domain_size, 1_000_000, fanout,
                       0.001, 7)
    assert actual > 0


@pytest.mark.parametrize("threads", (1, 2, 8))
def test_ablation_thread_chunking(benchmark, kernel_inputs, threads):
    benchmark.group = "ablation:threads"
    server, _ = kernel_inputs
    benchmark(server.psi_round_batch, ["OK"], num_shards=threads)
