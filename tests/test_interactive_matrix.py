"""Interactive-kernel equivalence matrix: kind × shards × deployment.

The acceptance bar of the shard-parallel interactive redesign: every
interactive Table-4 kind — MAX (verified and not), MIN, MEDIAN, and
bucketized PSI — produces **bit-identical** results to the seed
single-shard in-process path for every ``num_shards ∈ {1, 2, 7}`` and
every deployment mode (``local``, ``subprocess``, ``tcp``), and every
one of those executions runs through the unified ``Executor`` program
path — the legacy ``run_*`` drivers are never dispatched by the API.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro import Domain, PrismSystem, ProtocolError, Q, Relation
from repro.entities.adversary import SkipCellsServer
from repro.network.host import launch_forked_hosts
from repro.network.rpc import RpcMessage

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="fork-based entity hosts unavailable")

SHARD_COUNTS = [1, 2, 7]


def relations():
    return [
        Relation("a", {"k": [1, 2, 3], "amt": [10, 20, 30]}),
        Relation("b", {"k": [2, 3, 4], "amt": [1, 2, 3]}),
        Relation("c", {"k": [2, 3, 5], "amt": [5, 6, 7]}),
    ]


def build(deployment="local", num_shards=1, **kwargs):
    return PrismSystem.build(
        relations(), Domain.integer_range("k", 16), "k",
        agg_attributes=("amt",), with_verification=True, seed=3,
        deployment=deployment, num_shards=num_shards, **kwargs)


def run_interactive(system) -> dict:
    """One query per interactive kind, verified where supported.

    The query order is fixed so the blinding and announcer share
    streams advance identically everywhere — results must match the
    seed single-shard local run bit for bit.
    """
    verified_max = system.psi_max("k", "amt", verify=True)
    plain_max = system.psi_max("k", "amt")
    min_result = system.psi_min("k", "amt")
    median = system.psi_median("k", "amt")
    system.outsource_bucketized("k", fanout=2)
    bucket_result, bucket_stats = system.bucketized_psi("k")
    return {
        "max": verified_max.per_value,
        "max_holders": verified_max.holders,
        "plain_max_holders": plain_max.holders,
        "min": min_result.per_value,
        "min_holders": min_result.holders,
        "median": median.per_value,
        "bucket_values": sorted(bucket_result.values),
        "bucket_membership": bucket_result.membership.tolist(),
        "bucket_stats": bucket_stats,
    }


@pytest.fixture(scope="module")
def expected():
    """The seed result: single shard, in-process."""
    with build() as system:
        return run_interactive(system)


@pytest.fixture(scope="module")
def tcp_hosts():
    if not fork_available:
        pytest.skip("fork-based entity hosts unavailable")
    spec, processes = launch_forked_hosts(3)
    yield spec
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(timeout=10)


# -- the matrix ---------------------------------------------------------------


class TestLocalShardMatrix:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_bit_identical(self, expected, num_shards):
        with build(num_shards=num_shards) as system:
            assert run_interactive(system) == expected

    def test_per_call_shard_override(self, expected):
        with build() as system:
            result = system.psi_max("k", "amt", verify=True, num_shards=7)
            assert result.per_value == expected["max"]
            assert result.holders == expected["max_holders"]


@needs_fork
class TestSubprocessShardMatrix:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_bit_identical(self, expected, num_shards):
        with build("subprocess", num_shards=num_shards) as system:
            assert run_interactive(system) == expected


@needs_fork
class TestTcpShardMatrix:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_bit_identical(self, tcp_hosts, expected, num_shards):
        with build(tcp_hosts, num_shards=num_shards) as system:
            assert run_interactive(system) == expected

    def test_span_scoped_cell_sweeps_concatenate(self, tcp_hosts):
        """A bucketized level sweep splits into span-scoped RPC frames."""
        with build(tcp_hosts) as system:
            system.outsource_bucketized("k", fanout=2)
            server = system.servers[0]
            assert server.span_dispatch
            cells = np.asarray([1, 2, 3, 5, 8, 13], dtype=np.int64)
            full = server.psi_cells_round_batch(["k"], cells)
            payload = {"a": [["k"], cells, 1, None], "k": {}}
            halves = [
                server.channel.send(RpcMessage(
                    "psi_cells_round_batch", payload, span=span)).payload
                for span in ((0, 3), (3, 6))
            ]
            assert np.array_equal(np.concatenate(halves, axis=1), full)

    def test_sharded_level_sweeps_travel_as_span_frames(self, tcp_hosts,
                                                        expected,
                                                        monkeypatch):
        """With the per-shard floor lowered, a sharded remote bucketized
        traversal issues one span frame per shard — and stays
        bit-identical to the seed result."""
        import repro.entities.remote as remote
        monkeypatch.setattr(remote, "SPAN_DISPATCH_MIN_CELLS", 1)
        with build(tcp_hosts, num_shards=2) as system:
            system.outsource_bucketized("k", fanout=2)
            requests_before = system.channel_stats()["requests"]
            result, stats = system.bucketized_psi("k")
            span_requests = (system.channel_stats()["requests"]
                             - requests_before)
            assert sorted(result.values) == expected["bucket_values"]
            assert stats == expected["bucket_stats"]
            # Two servers sweep each level; sharded levels split into
            # one frame per shard, so the traversal needs more requests
            # than the 2-per-level whole-sweep baseline.
            assert span_requests > 2 * stats["rounds"]

    def test_span_cell_requests_refuse_modified_servers(self, tcp_hosts):
        with build(tcp_hosts,
                   server_factories={0: SkipCellsServer}) as system:
            assert not system.servers[0].span_dispatch
            with pytest.raises(ProtocolError):
                system.servers[0].channel.send(RpcMessage(
                    "psi_cells_round_batch",
                    {"a": [["k"], [0, 1, 2, 3]], "k": {}}, span=(0, 2)))


# -- the unified path ---------------------------------------------------------


class TestUnifiedExecutionPath:
    def test_executor_never_calls_legacy_drivers(self, expected, monkeypatch):
        """The API routes every interactive kind through the program
        state machines; the legacy ``run_*`` functions are shims for
        direct callers only."""
        import repro.core.bucketized as bucketized
        import repro.core.extrema as extrema

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("legacy dispatch used by the executor")

        monkeypatch.setattr(extrema, "run_extrema", boom)
        monkeypatch.setattr(extrema, "run_median", boom)
        monkeypatch.setattr(bucketized, "run_bucketized_psi", boom)
        with build(num_shards=2) as system:
            assert run_interactive(system) == expected

    def test_submit_runs_interactive_kinds(self, expected):
        with build(num_shards=2) as system, system.client() as client:
            futures = {
                "max": client.submit(Q.psi("k").max("amt").verify()),
                "min": client.submit(Q.psi("k").min("amt")),
                "median": client.submit(Q.psi("k").median("amt")),
            }
            assert futures["max"].result(timeout=60).per_value \
                == expected["max"]
            assert futures["min"].result(timeout=60).per_value \
                == expected["min"]
            assert futures["median"].result(timeout=60).per_value \
                == expected["median"]
            stats = client.stats
            assert stats["interactive_units"] == 3
            assert stats["scheduler"]["interactive_jobs"] == 3
            assert stats["scheduler"]["interactive_rounds"] > 3
            assert stats["by_kind"] == {"psi_max": 1, "psi_min": 1,
                                        "psi_median": 1}

    def test_sharded_psi_round_uses_the_worker_pool(self, expected):
        """The interactive round-1 sweep really runs sharded on the
        deployment's thread pool."""
        with build(num_shards=2) as system:
            before = system._shard_runtime.dispatches
            result = system.psi_max("k", "amt")
            assert result.per_value == expected["max"]
            assert system._shard_runtime.dispatches > before

    def test_failed_program_is_poisoned_not_silently_done(self):
        from repro.core.interactive import ExtremaProgram
        # Costs exceed the declared bound: the blinding round raises.
        with build(value_bound=5) as system:
            program = ExtremaProgram(system, "k", "amt")
            with pytest.raises(ProtocolError):
                program.run()
            assert not program.done
            # Stepping a poisoned program raises loudly; it never
            # drains into done=True with a None result.
            with pytest.raises(ProtocolError, match="earlier round"):
                program.step()

    def test_explain_routes_interactive_units(self):
        with build() as system, system.client() as client:
            text = client.explain(Q.psi("k").max("amt"))
            assert "interactive runner" in text
