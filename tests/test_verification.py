"""Fault-injection tests: every §5.2 adversary must be caught (§5.2, §6)."""

import numpy as np
import pytest

from repro import Domain, PrismSystem, Relation, VerificationError, kernels
from repro.data.storage import ShareKind
from repro.entities.adversary import (
    DropAggregateServer,
    FalsifyVerificationServer,
    InjectFakeServer,
    ReplaySwapServer,
    SkipCellsServer,
)
from repro.exceptions import ProtocolError
from repro.network.host import ServerAdapter
from repro.network.rpc import ERROR, RpcMessage

DOMAIN = list(range(1, 25))
SETS = [{1, 2, 5, 9, 14}, {2, 5, 9, 17}, {2, 5, 20}]


def adversarial_system(server_factories, seed=3, sets=SETS, domain=DOMAIN,
                       **kwargs):
    relations = [Relation(f"o{i}", {"k": sorted(s), "amt": [7] * len(s)})
                 for i, s in enumerate(sets)]
    return PrismSystem.build(relations, Domain("k", domain), "k",
                             agg_attributes=("amt",), with_verification=True,
                             seed=seed, server_factories=server_factories,
                             **kwargs)


class TestHonestBaseline:
    def test_honest_servers_verify_clean(self):
        system = adversarial_system({})
        result = system.psi("k", verify=True)
        assert result.verified
        assert set(result.values) == {2, 5}
        assert system.psi_count("k", verify=True).count == 2
        assert system.psi_sum("k", "amt", verify=True)["amt"].per_value == {
            2: 21, 5: 21}


class TestPsiVerificationCatchesAdversaries:
    def test_skip_cells_detected(self):
        system = adversarial_system({0: SkipCellsServer})
        with pytest.raises(VerificationError):
            system.psi("k", verify=True)

    def test_replay_swap_detected(self):
        factory = lambda i, p: ReplaySwapServer(i, p, swap=(0, 5))
        system = adversarial_system({1: factory})
        with pytest.raises(VerificationError):
            system.psi("k", verify=True)

    def test_inject_fake_detected(self):
        factory = lambda i, p: InjectFakeServer(i, p, cells=(3,))
        system = adversarial_system({0: factory})
        with pytest.raises(VerificationError):
            system.psi("k", verify=True)

    def test_falsified_verification_stream_detected(self):
        factory = lambda i, p: FalsifyVerificationServer(i, p, cell=2)
        system = adversarial_system({0: factory})
        with pytest.raises(VerificationError):
            system.psi("k", verify=True)

    def test_failed_cells_reported(self):
        factory = lambda i, p: InjectFakeServer(i, p, cells=(3,))
        system = adversarial_system({0: factory})
        with pytest.raises(VerificationError) as excinfo:
            system.psi("k", verify=True)
        assert excinfo.value.failed_cells
        assert 3 in excinfo.value.failed_cells

    def test_unverified_query_does_not_raise(self):
        # Without verification the tampering goes unnoticed — that is the
        # point of the verification protocol.
        factory = lambda i, p: InjectFakeServer(i, p, cells=(3,))
        system = adversarial_system({0: factory})
        result = system.psi("k")  # no verify
        assert result is not None

    def test_both_servers_malicious_detected(self):
        system = adversarial_system({0: SkipCellsServer, 1: SkipCellsServer})
        with pytest.raises(VerificationError):
            system.psi("k", verify=True)


class TestCountVerification:
    def test_skip_cells_detected(self):
        system = adversarial_system({0: SkipCellsServer})
        with pytest.raises(VerificationError):
            system.psi_count("k", verify=True)

    def test_inject_detected(self):
        factory = lambda i, p: InjectFakeServer(i, p, cells=(0, 1))
        system = adversarial_system({1: factory})
        with pytest.raises(VerificationError):
            system.psi_count("k", verify=True)


class TestAggregateVerification:
    def test_dropped_cells_detected(self):
        # Drop the Eq. 11 output for the cells of the common values.
        common_cells = tuple(range(8))
        factory = lambda i, p: DropAggregateServer(i, p, cells=common_cells)
        system = adversarial_system({0: factory})
        with pytest.raises(VerificationError):
            system.psi_sum("k", "amt", verify=True)

    def test_unverified_sum_silently_wrong(self):
        common_cells = tuple(range(8))
        factory = lambda i, p: DropAggregateServer(i, p, cells=common_cells)
        system = adversarial_system({0: factory})
        tampered = system.psi_sum("k", "amt")["amt"].per_value
        honest = adversarial_system({}).psi_sum("k", "amt")["amt"].per_value
        assert tampered != honest


class TestDetectionProbability:
    def test_skip_attack_with_unpermuted_complement_would_pass(self):
        # The reason PF_db1 exists (§5.2): replicate cell 0 of both
        # streams; with the complement un-permuted, the forged proof pairs
        # up.  We emulate by checking that cell 0's own proof is valid.
        system = adversarial_system({})
        out, vout = zip(*(s.psi_round_batch(["k", "vk"],
                                            subtract_m=[True, False])
                          for s in system.servers[:2]))
        owner = system.owners[0]
        eta = owner.params.eta
        fop0 = int(out[0][0]) * int(out[1][0]) % eta
        # Find the complement cell that corresponds to cell 0.
        vcell = owner.params.pf_db1.apply_index(0)
        r2 = int(vout[0][vcell]) * int(vout[1][vcell]) % eta
        assert fop0 * r2 % eta == 1


# -- adversaries run the kernels honest deployments run -----------------------

#: Wide enough that the compiled tier engages (``NATIVE_MIN_SPAN``).
WIDE_DOMAIN = list(range(1, 1025))


@pytest.fixture()
def compiled_tier():
    if kernels.configure("c") != "c":
        kernels.configure(None)
        pytest.skip("compiled kernel tier unavailable (no C toolchain)")
    yield
    kernels.configure(None)


def _spy(monkeypatch, name):
    """Record every ``kernels.<name>`` call's row vectors and result."""
    calls = []
    original = getattr(kernels, name)

    def spy(summed, *args, **kwargs):
        kernel = original(summed, *args, **kwargs)
        calls.append((list(summed), kernel))
        return kernel

    monkeypatch.setattr(kernels, name, spy)
    return calls


def _compiled_sweeps_over(calls, server, columns, kind):
    """Compiled sweeps that read the owner-summed vectors ``server``'s
    store keeps for ``columns`` (a row may be a window of one)."""
    kept = [server.store.summed(column, kind) for column in columns]
    assert all(vector is not None for vector in kept)
    return [kernel for vectors, kernel in calls
            if kernel is not None
            and any(np.shares_memory(v, k) for v in vectors for k in kept)]


class TestAdversariesRunTheFusedKernel:
    """Tampering happens after the real (compiled, sharded) sweep, so an
    adversary's outputs come from the same kernel an honest server runs,
    and verification still catches it."""

    def test_skip_cells_runs_the_compiled_psi_sweep(self, compiled_tier,
                                                    monkeypatch):
        # The Eq. 3/7 sweep reads the server's owner-summed vectors, the
        # very arrays its store keeps for the data and proof columns.
        calls = _spy(monkeypatch, "psi_sweep")
        with adversarial_system({0: SkipCellsServer},
                                domain=WIDE_DOMAIN, num_shards=7) as system:
            with pytest.raises(VerificationError):
                system.psi("k", verify=True)
            assert _compiled_sweeps_over(calls, system.servers[0],
                                         ["k", "vk"], ShareKind.ADDITIVE)

    def test_drop_aggregate_runs_the_compiled_agg_sweep(self, compiled_tier,
                                                        monkeypatch):
        # The Eq. 11 sweep reads the Shamir owner sums the server's
        # store keeps for the data and proof columns.
        calls = _spy(monkeypatch, "agg_sweep")
        factory = lambda i, p: DropAggregateServer(i, p, cells=tuple(range(8)))
        with adversarial_system({0: factory}, domain=WIDE_DOMAIN,
                                num_shards=7) as system:
            with pytest.raises(VerificationError):
                system.psi_sum("k", "amt", verify=True)
            assert _compiled_sweeps_over(calls, system.servers[0],
                                         ["amt", "vamt"], ShareKind.SHAMIR)


class TestSpanRequestsRefuseTamperingServers:
    """A host serves no span frame, so a tampering server never
    misbehaves over a window of a sweep (the every-kind refusal is
    ``tests/test_deployment.py::TestSpanKernels``)."""

    @staticmethod
    def _span(server, lo=0, hi=8):
        reply = ServerAdapter(server).dispatch(RpcMessage(
            "indicator_round",
            {"a": [[{"family": "psi", "columns": ["k"]}]], "k": {}},
            span=(lo, hi)))
        if reply.kind == ERROR:
            raise ProtocolError(reply.payload["message"])
        return reply.payload[0]

    def test_adversary_subclass_refused(self):
        server = adversarial_system({0: SkipCellsServer}).servers[0]
        with pytest.raises(ProtocolError, match=r"span \(0, 8\) refused"):
            self._span(server)

    def test_instance_level_tamper_refused(self):
        server = adversarial_system({}).servers[0]
        server.tamper = lambda kind, column, row: row
        with pytest.raises(ProtocolError, match=r"span \(0, 8\) refused"):
            self._span(server)
