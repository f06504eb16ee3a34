"""Table 14 — owner-side result-construction time (Exp 3).

Paper shape: the owner's Phase-4 work (modular products, Lagrange
interpolation) is significantly cheaper than the servers' Phase-3 sweeps.
"""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def psi_outputs(system10):
    return [s.psi_round_batch(["OK"])[0] for s in system10.servers[:2]]


def test_table14_psi_owner_finalize(benchmark, system10, psi_outputs):
    benchmark.group = "table14"
    owner = system10.owners[0]

    def finalize():
        fop = owner.finalize_psi(psi_outputs[0], psi_outputs[1])
        member = owner.psi_membership(fop)
        return owner.decode_cells(member)

    benchmark(finalize)


def test_table14_count_owner_finalize(benchmark, system10, psi_outputs):
    benchmark.group = "table14"
    owner = system10.owners[0]

    def finalize():
        fop = owner.finalize_psi(psi_outputs[0], psi_outputs[1])
        return int(np.count_nonzero(fop == 1))

    benchmark(finalize)


def test_table14_psu_owner_finalize(benchmark, system10):
    benchmark.group = "table14"
    outputs = [s.psu_round_batch(["OK"], [1])[0]
               for s in system10.servers[:2]]
    owner = system10.owners[0]
    benchmark(lambda: owner.decode_cells(owner.finalize_psu(*outputs)))


def test_table14_sum_owner_finalize(benchmark, system10, psi_outputs):
    benchmark.group = "table14"
    owner = system10.owners[0]
    fop = owner.finalize_psi(psi_outputs[0], psi_outputs[1])
    member = owner.psi_membership(fop)
    z_shares = owner.make_z_shares(member)
    outputs = [srv.aggregate_round_batch(["DT"], z[None])[0]
               for srv, z in zip(system10.servers[:3], z_shares)]
    benchmark(owner.finalize_aggregate, outputs)


def test_table14_shape_owner_much_cheaper_than_server(system10):
    """Owner finalisation must cost well below the server sweep."""
    result = system10.psi("OK")
    assert result.timings.owner_seconds < result.timings.server_seconds * 2
