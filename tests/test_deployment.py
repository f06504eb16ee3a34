"""Deployment equivalence: local vs subprocess vs TCP entity hosts.

The acceptance bar of the pluggable-deployment redesign: a query issued
through :meth:`PrismClient.connect` against server entities running in
separate OS processes returns **bit-identical** results to
``deployment="local"`` for every Table-4 kind — PSI, PSU, counts,
SUM/AVG aggregates, extrema, median — including verified mode and
malicious-server fault injection over the socket channel.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro import (
    Deployment,
    Domain,
    ParameterError,
    PrismClient,
    PrismSystem,
    ProtocolError,
    Q,
    Relation,
    VerificationError,
)
from repro.entities.adversary import (
    DropAggregateServer,
    InjectFakeServer,
    SkipCellsServer,
)
from repro.entities.remote import RemoteServer
from repro.entities.server import PrismServer
from repro.network.host import ServerAdapter, launch_forked_hosts
from repro.network.rpc import (
    InProcessChannel,
    RpcMessage,
    SubprocessChannel,
)

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="fork-based entity hosts unavailable")


def relations():
    return [
        Relation("a", {"k": [1, 2, 3], "amt": [10, 20, 30]}),
        Relation("b", {"k": [2, 3, 4], "amt": [1, 2, 3]}),
        Relation("c", {"k": [2, 3, 5], "amt": [5, 6, 7]}),
    ]


def sweep(family="psi", *columns, **keys) -> dict:
    """One :meth:`PrismServer.indicator_round` sweep over ``columns``."""
    return {"family": family, "columns": list(columns or ("k",)), **keys}


def build(deployment="local", seed=3, **kwargs):
    return PrismSystem.build(
        relations(), Domain.integer_range("k", 8), "k",
        agg_attributes=("amt",), with_verification=True, seed=seed,
        deployment=deployment, **kwargs)


def run_table4(system) -> dict:
    """One query per Table-4 kind, verified where supported.

    The per-query order is fixed, so the nonce and blinding streams
    advance identically in every deployment mode — results must match
    bit for bit.
    """
    psi = system.psi("k", verify=True)
    psu = system.psu("k", verify=True)
    max_result = system.psi_max("k", "amt", verify=True)
    min_result = system.psi_min("k", "amt")
    return {
        "psi_values": sorted(psi.values),
        "psi_membership": psi.membership.tolist(),
        "psu_values": sorted(psu.values),
        "psu_membership": psu.membership.tolist(),
        "psi_count": system.psi_count("k", verify=True).count,
        "psu_count": system.psu_count("k").count,
        "sum": system.psi_sum("k", "amt", verify=True)["amt"].per_value,
        "avg": system.psi_average("k", "amt")["amt"].per_value,
        "psu_sum": system.psu_sum("k", "amt")["amt"].per_value,
        "max": max_result.per_value,
        "max_holders": max_result.holders,
        "min": min_result.per_value,
        "median": system.psi_median("k", "amt").per_value,
    }


@pytest.fixture(scope="module")
def expected_table4():
    with build("local") as system:
        return run_table4(system)


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


# -- the deployment spec ------------------------------------------------------


class TestDeploymentSpec:
    def test_local_and_subprocess(self):
        assert Deployment.parse("local").is_local
        assert Deployment.parse("subprocess").mode == "subprocess"

    def test_tcp_parses_three_addresses(self):
        spec = Deployment.parse("tcp://a:1,b:2,c:3")
        assert spec.mode == "tcp"
        assert spec.pools == ((("a", 1),), (("b", 2),), (("c", 3),))

    def test_tcp_needs_one_address_per_server(self):
        with pytest.raises(ParameterError):
            Deployment.parse("tcp://a:1,b:2")

    def test_malformed_inputs_rejected(self):
        for bad in ("tcp://a:b,c:d,e:f", "udp://a:1,b:2,c:3", "nope", 7):
            with pytest.raises(ParameterError):
                Deployment.parse(bad)

    def test_passthrough(self):
        spec = Deployment.parse("tcp://a:1,b:2,c:3")
        assert Deployment.parse(spec) is spec

    def test_system_records_deployment(self):
        with build("local") as system:
            assert system.deployment.is_local
            assert system.channel_stats()["bytes_sent"] == 0


# -- the channel surface, without any process boundary ------------------------


class TestInProcessChannel:
    def make_channel(self, serialize=False):
        system = build("local")
        return system, InProcessChannel(system.servers[0],
                                        serialize=serialize)

    def test_call_matches_direct(self):
        system, channel = self.make_channel()
        direct = system.servers[0].psi_round_batch(["k"])
        out, = channel.call("indicator_round", [sweep()])
        assert np.array_equal(out, direct)
        assert channel.stats["requests"] == 1
        system.close()

    def test_serialize_mode_round_trips_frames(self):
        system, channel = self.make_channel(serialize=True)
        direct = system.servers[0].psi_round_batch(["k", "vk"],
                                                   subtract_m=[True, False])
        out, = channel.call("indicator_round", [
            sweep("psi", "k", "vk", subtract_m=[True, False])])
        assert np.array_equal(out, direct)
        assert channel.stats["bytes_sent"] > 0
        assert channel.stats["bytes_received"] > direct.nbytes
        system.close()

    def test_remote_errors_rebuild_local_types(self):
        system, channel = self.make_channel()
        with pytest.raises(ProtocolError):
            channel.call("fetch_additive", "no-such-column", None)
        with pytest.raises(ProtocolError):
            channel.call("_psi_rows", [])  # not on the allowlist
        with pytest.raises(ProtocolError):
            channel.call("tamper", "psi", "k", [])  # nor is the seam
        system.close()

    def test_proxy_over_inprocess_channel_is_equivalent(self):
        # RemoteServer(InProcessChannel(server)) must behave exactly
        # like the raw server: the proxy surface is channel-agnostic.
        system, channel = self.make_channel(serialize=True)
        raw = system.servers[0]
        proxy = RemoteServer(0, raw.params, channel)
        assert np.array_equal(proxy.indicator_round([sweep()])[0],
                              raw.psi_round_batch(["k"]))
        assert proxy.owners_with("k") == raw.owners_with("k")
        shares = proxy.fetch_additive("k")  # fetched over the channel
        assert len(shares) == 3
        for fetched, stored in zip(shares, raw.fetch_additive("k")):
            assert fetched.dtype == stored.dtype
            assert np.array_equal(fetched, stored)
        system.close()


# -- subprocess deployment ----------------------------------------------------


@needs_fork
class TestSubprocessDeployment:
    def test_bit_identical_to_local(self, expected_table4):
        with build("subprocess") as system:
            assert run_table4(system) == expected_table4

    def test_batch_and_builder_surfaces(self, expected_table4):
        with build("subprocess") as system:
            batch = system.executor.execute_many([
                "SELECT k FROM a INTERSECT SELECT k FROM b",
                Q.psu("k").count(),
                Q.psi("k").sum("amt"),
            ])
            assert sorted(batch[0].values) == expected_table4["psi_values"]
            assert batch[1].count == expected_table4["psu_count"]
            assert batch[2].per_value == expected_table4["sum"]

    def test_sharded_batch_over_channel(self, expected_table4):
        with build("subprocess") as system:
            result = system.executor.execute_many(
                ["SELECT k FROM a INTERSECT SELECT k FROM b"], num_shards=2)
            assert sorted(result[0].values) == expected_table4["psi_values"]

    def test_concurrent_submit_coalesces_over_channel(self, expected_table4):
        with build("subprocess") as system, system.client() as client:
            with client.hold():
                futures = [client.submit("SELECT k FROM a INTERSECT "
                                         "SELECT k FROM b")
                           for _ in range(4)]
            values = [sorted(f.result().values) for f in futures]
            assert values == [expected_table4["psi_values"]] * 4
            assert client.stats["scheduler"]["max_coalesced"] == 4

    def test_bucketized_psi_keeps_shares_server_side(self, expected_table4):
        # The per-level rounds ship active cell *indices* in a cells
        # sweep of indicator_round; the χ shares never cross the channel.
        with build("subprocess") as system:
            system.outsource_bucketized("k", fanout=2)
            received_before = system.channel_stats()["bytes_received"]
            result, stats = system.bucketized_psi("k")
            received = system.channel_stats()["bytes_received"] \
                - received_before
            assert sorted(result.values) == expected_table4["psi_values"]
            assert stats["rounds"] >= 2
            # Replies carry only the active-cell outputs (plus framing),
            # far below even one owner's full χ share vector per round.
            assert received < stats["numbers_sent"] * 8 * 4 + 4096

    def test_malicious_factory_callable_travels_by_fork(self):
        factories = {1: lambda i, p: SkipCellsServer(i, p)}
        with build("subprocess", server_factories=factories) as system:
            with pytest.raises(VerificationError):
                system.psi("k", verify=True)

    def test_channels_count_wire_bytes(self):
        with build("subprocess") as system:
            system.psi("k")
            stats = system.channel_stats()
            assert stats["mode"] == "subprocess"
            assert stats["requests"] >= 2
            assert stats["bytes_sent"] > 0
            assert stats["bytes_received"] > 0


@needs_fork
class TestFramesPerRound:
    """Each protocol round is one frame per server: round 1 one
    ``indicator_round`` per additive server, the Eq. 11 round one
    ``aggregate_round_batch`` per server."""

    @staticmethod
    def count_frames(system) -> dict:
        """Count each kind of frame the system's channels send."""
        frames: dict = {}
        for channel in system._channels:
            def issue(messages, _issue=channel.issue):
                messages = list(messages)
                for message in messages:
                    frames[message.kind] = frames.get(message.kind, 0) + 1
                return _issue(messages)
            channel.issue = issue
        return frames

    def test_mixed_batch_sends_one_frame_per_server_per_round(
            self, expected_table4):
        with build("subprocess") as system:
            frames = self.count_frames(system)
            results = system.executor.execute_many([
                Q.psi("k"), Q.psu("k"), Q.psi("k").count(),
                Q.psi("k").sum("amt"), Q.psi("k").verify()])
            assert frames == {"indicator_round": 2,
                              "aggregate_round_batch": 3}
            assert sorted(results[0].values) == expected_table4["psi_values"]
            assert results[3].per_value == expected_table4["sum"]
            assert results[4].verified

    def test_verified_psu_sends_two_frames(self, expected_table4):
        with build("subprocess") as system:
            frames = self.count_frames(system)
            result = system.psu("k", verify=True)
            assert frames == {"indicator_round": 2}
            assert result.traffic["rounds"] == 1
            assert sorted(result.values) == expected_table4["psu_values"]

    def test_owner_groups_share_the_round(self):
        with build("subprocess") as system:
            frames = self.count_frames(system)
            system.executor.execute_many([Q.psi("k"),
                                          Q.psi("k").owners((0, 2))])
            assert frames == {"indicator_round": 2}


# -- TCP deployment -----------------------------------------------------------


@needs_fork
class TestTcpDeployment:
    def test_bit_identical_to_local(self, tcp_hosts, expected_table4):
        with build(tcp_hosts) as system:
            assert run_table4(system) == expected_table4

    def test_client_connect_runs_identical_surface(self, tcp_hosts,
                                                   expected_table4):
        client = PrismClient.connect(
            tcp_hosts, relations(), Domain.integer_range("k", 8), "k",
            agg_attributes=("amt",), with_verification=True, seed=3)
        try:
            sql = client.execute(
                "SELECT k FROM a INTERSECT SELECT k FROM b")
            assert sorted(sql.values) == expected_table4["psi_values"]
            fluent = client.execute(Q.psi("k").sum("amt").verify())
            assert fluent.per_value == expected_table4["sum"]
            many = client.execute_many(
                [Q.psu("k").count(), Q.psi("k").count()])
            assert many[0].count == expected_table4["psu_count"]
            assert many[1].count == expected_table4["psi_count"]
            assert client.stats["traffic"]["messages"] > 0
        finally:
            client.close()
            client.system.close()

    def test_verified_queries_over_socket(self, tcp_hosts):
        with build(tcp_hosts) as system:
            assert system.psi("k", verify=True).verified
            assert system.psu("k", verify=True).verified
            assert system.psi_sum("k", "amt", verify=True)["amt"].verified
            assert system.psi_count("k", verify=True).count == 2

    def test_skip_cells_server_caught_over_socket(self, tcp_hosts):
        with build(tcp_hosts,
                   server_factories={1: SkipCellsServer}) as system:
            with pytest.raises(VerificationError):
                system.psi("k", verify=True)

    def test_inject_fake_server_caught_over_socket(self, tcp_hosts):
        with build(tcp_hosts,
                   server_factories={0: InjectFakeServer}) as system:
            with pytest.raises(VerificationError):
                system.psi("k", verify=True)

    def test_drop_aggregate_server_caught_over_socket(self, tcp_hosts):
        # Constructor kwargs travel in the bootstrap payload: target
        # cells inside the intersection so the drop is observable.
        factories = {2: (DropAggregateServer, {"cells": (2, 3)})}
        with build(tcp_hosts, server_factories=factories) as system:
            with pytest.raises(VerificationError):
                system.psi_sum("k", "amt", verify=True)

    def test_lambda_factories_rejected_for_tcp(self, tcp_hosts):
        with pytest.raises(ParameterError):
            build(tcp_hosts,
                  server_factories={1: lambda i, p: SkipCellsServer(i, p)})

    def test_span_scoped_requests_concatenate_bit_identically(
            self, tcp_hosts):
        with build(tcp_hosts) as system:
            server = system.servers[0]
            both = sweep("psi", "k", "vk", subtract_m=[True, False])
            full, = server.indicator_round([both])
            b = system.domain.size
            payload = {"a": [[both]], "k": {}}
            halves = [
                server.channel.send(RpcMessage(
                    "indicator_round", payload, span=span)).payload[0]
                for span in ((0, b // 2), (b // 2, b))
            ]
            assert np.array_equal(np.concatenate(halves, axis=1), full)

    def test_span_requests_refuse_modified_servers(self, tcp_hosts):
        with build(tcp_hosts,
                   server_factories={0: SkipCellsServer}) as system:
            with pytest.raises(ProtocolError):
                system.servers[0].channel.send(RpcMessage(
                    "indicator_round", {"a": [[sweep()]], "k": {}},
                    span=(0, 4)))

    def test_sharded_batch_over_socket(self, tcp_hosts, expected_table4):
        with build(tcp_hosts, num_shards=2) as system:
            batch = system.executor.execute_many([
                "SELECT k FROM a INTERSECT SELECT k FROM b",
                "SELECT k FROM a UNION SELECT k FROM b",
            ])
            assert sorted(batch[0].values) == expected_table4["psi_values"]
            assert sorted(batch[1].values) == expected_table4["psu_values"]


# -- subprocess channel plumbing ----------------------------------------------


@needs_fork
class TestSubprocessChannel:
    def test_spawn_ping_shutdown(self):
        system = build("local")
        server = system.servers[0]
        channel = SubprocessChannel.spawn(lambda: server)
        try:
            reply = channel.send(RpcMessage("__ping__"))
            assert reply.payload["entity"] == "server"
            assert reply.payload["index"] == 0
        finally:
            channel.close()
            system.close()
        assert not channel.process.is_alive()

    def test_construct_refuses_a_corrupted_permutation(self):
        """A forked host handed a ``pf`` that is not a permutation
        answers with a typed ``ParameterError`` and keeps serving: the
        next, intact construct succeeds."""
        from repro.network.rpc import CONSTRUCT, server_params_to_wire

        system = build("local")
        wire = server_params_to_wire(system.initiator.server_params(0))
        pf = np.asarray(wire["pf"])
        repeat, negative, too_big = pf.copy(), pf.copy(), pf.copy()
        repeat[pf == 1] = 0
        negative[pf == 0] = -1
        too_big[pf == pf.size - 1] = pf.size
        channel = SubprocessChannel.spawn(None)
        try:
            for corrupted in (repeat, negative, too_big):
                with pytest.raises(ParameterError,
                                   match="not a permutation"):
                    channel.send(RpcMessage(CONSTRUCT, {
                        "entity": "server", "index": 0,
                        "params": {**wire, "pf": corrupted}}))
            reply = channel.send(RpcMessage(CONSTRUCT, {
                "entity": "server", "index": 0, "params": wire}))
            assert reply.payload["index"] == 0
            assert channel.send(RpcMessage("__ping__")).payload["index"] == 0
        finally:
            channel.close()
            system.close()
        assert not channel.process.is_alive()

    def test_closed_channel_refuses_sends(self):
        system = build("local")
        channel = SubprocessChannel.spawn(
            lambda: PrismServer(0, system.initiator.server_params(0)))
        channel.close()
        with pytest.raises(ProtocolError):
            channel.call("indicator_round", [sweep()])
        system.close()


# -- host adapter guard rails -------------------------------------------------


class TestServerAdapter:
    def test_private_methods_unreachable(self):
        system = build("local")
        adapter = ServerAdapter(system.servers[0])
        reply = adapter.dispatch(RpcMessage("_thread_pool", {"a": [1]}))
        assert reply.kind == "__error__"
        reply = adapter.dispatch(RpcMessage("store", {}))
        assert reply.kind == "__error__"
        system.close()

    def test_span_rejects_non_uniform_owner_sets(self):
        # A fused span sums a fixed share set per row; a column held by
        # fewer owners must fail loudly, not sweep with the wrong A(m).
        from repro.data.storage import ShareKind
        system = build("local")
        server = system.servers[0]
        server.store.put(0, "solo",
                         np.zeros(system.domain.size, dtype=np.int64),
                         ShareKind.ADDITIVE)
        adapter = ServerAdapter(server)
        reply = adapter.dispatch(RpcMessage(
            "indicator_round", {"a": [[sweep("psi", "k", "solo")]], "k": {}},
            span=(0, 4)))
        assert reply.kind == "__error__"
        assert "uniform" in reply.payload["message"]
        system.close()

    def test_span_on_unsupported_kernel_rejected(self):
        # A share fetch is not a sweep: a span frame for it must fail
        # rather than return the whole column labeled with a span.
        system = build("local")
        adapter = ServerAdapter(system.servers[0])
        reply = adapter.dispatch(RpcMessage(
            "fetch_additive", {"a": ["k", None], "k": {}}, span=(0, 4)))
        assert reply.kind == "__error__"
        assert "span" in reply.payload["message"]
        system.close()

    def test_span_window_only_from_the_envelope(self):
        # The kernels' window is set by the adapter from the frame
        # envelope; a payload naming one would skip the span checks.
        system = build("local")
        adapter = ServerAdapter(system.servers[0])
        reply = adapter.dispatch(RpcMessage(
            "indicator_round", {"a": [[sweep()]], "k": {"span": (0, 4)}}))
        assert reply.kind == "__error__"
        assert "frame envelope" in reply.payload["message"]
        system.close()

    def test_span_psu_rejects_permute_flags(self):
        # A span frame serves the unpermuted sweep; a frame asking the
        # host to permute a span would corrupt the concatenation.
        system = build("local")
        adapter = ServerAdapter(system.servers[0])
        for permuted in (sweep("psu", nonces=[1], permute=["pf_s1"]),
                         sweep("psi", permute=["pf_s2"])):
            reply = adapter.dispatch(RpcMessage(
                "indicator_round", {"a": [[permuted]], "k": {}},
                span=(0, 4)))
            assert reply.kind == "__error__"
            assert "unpermuted" in reply.payload["message"]
        system.close()


    @pytest.mark.parametrize("sweeps,message", [
        ([sweep("count")], "family must be 'psi', 'psu' or 'cells'"),
        ([sweep(subtract_m=[True, False])], "subtract_m flags must match"),
        ([sweep("psu", nonces=[1, 2])], "query_nonces must match"),
        ([sweep(permute=["pf_s3"])], "unknown row permutation"),
        ([sweep(), sweep("psu", nonces=[1], permute=[True])],
         "unknown row permutation"),
    ])
    def test_malformed_indicator_rounds_refused(self, sweeps, message):
        system = build("local")
        adapter = ServerAdapter(system.servers[0])
        reply = adapter.dispatch(RpcMessage(
            "indicator_round", {"a": [sweeps], "k": {}}))
        assert reply.kind == "__error__"
        assert reply.payload["type"] == "ProtocolError"
        assert message in reply.payload["message"]
        system.close()

    @pytest.mark.parametrize("cells,message", [
        ([1.7, 2.2, 3.9], "1-D integer array or a list of ints"),
        (np.asarray([1.7, 2.2, 3.9]), "1-D integer array or a list of ints"),
        ([True, False], "1-D integer array or a list of ints"),
        (np.asarray([[0, 1], [2, 3]]), "1-D integer array or a list of ints"),
        ([2 ** 70], "out of range"),
        ([0, -1], "out of range for χ length"),
        ([0, 8], "out of range for χ length"),
    ], ids=["float-list", "float-array", "bool-list", "2d-array",
            "int64-overflow", "negative", "past-b"])
    def test_malformed_cell_indices_refused(self, cells, message):
        # A cells sweep takes only integer cell indices below b: a float
        # or bool index is refused, never truncated to a cell nobody
        # asked for, and before any sweep of the round runs.
        system = build("local")
        server = system.servers[0]
        swept = []
        server.tamper = lambda kind, column, row: swept.append(kind) or row
        adapter = ServerAdapter(server)
        reply = adapter.dispatch(RpcMessage(
            "indicator_round",
            {"a": [[sweep(), sweep("cells", cells=cells)]], "k": {}}))
        assert reply.kind == "__error__"
        assert reply.payload["type"] == "ProtocolError"
        assert message in reply.payload["message"]
        if "integer" in message:
            assert swept == []
        system.close()

    def test_cell_sweep_matches_the_sliced_psi_sweep(self):
        system = build("local")
        server = system.servers[0]
        adapter = ServerAdapter(server)
        full = server.psi_round_batch(["k"])
        for cells in ([5, 0, 7], np.asarray([5, 0, 7], dtype=np.uint16)):
            reply = adapter.dispatch(RpcMessage(
                "indicator_round",
                {"a": [[sweep("cells", cells=cells)]], "k": {}}))
            assert reply.kind == "__result__"
            assert np.array_equal(reply.payload[0], full[:, [5, 0, 7]])
        system.close()

    @needs_fork
    def test_malformed_indicator_round_refused_over_the_wire(self):
        with build("subprocess") as system:
            with pytest.raises(ProtocolError, match="unknown row perm"):
                system.servers[0].indicator_round(
                    [sweep(permute=["pf_s3"])])
            assert system.psi("k").values  # the host still serves


# -- span kernels, in-process -------------------------------------------------


class TestSpanKernels:
    """Span-scoped sweep frames concatenate bit-identically, per family."""

    def test_psi_span_frames_concatenate(self):
        system = build("local")
        server = system.servers[0]
        adapter = ServerAdapter(server)
        full = server.psi_round_batch(["k", "k"], subtract_m=[True, False])
        parts = []
        for span in ((0, 3), (3, 8)):
            reply = adapter.dispatch(RpcMessage(
                "indicator_round",
                {"a": [[sweep("psi", "k", "k", owner_ids=None,
                              subtract_m=[True, False])]], "k": {}},
                span=span))
            assert reply.kind == "__result__"
            parts.append(reply.payload[0])
        assert np.array_equal(np.concatenate(parts, axis=1), full)
        system.close()

    def test_psu_span_frames_concatenate_unpermuted(self):
        system = build("local")
        server = system.servers[0]
        adapter = ServerAdapter(server)
        full = server.psu_round_batch(["k", "k"], [5, 9])
        parts = []
        for span in ((0, 5), (5, 8)):
            reply = adapter.dispatch(RpcMessage(
                "indicator_round",
                {"a": [[sweep("psu", "k", "k", nonces=[5, 9],
                              owner_ids=None)]], "k": {}}, span=span))
            assert reply.kind == "__result__"
            parts.append(reply.payload[0])
        assert np.array_equal(np.concatenate(parts, axis=1), full)
        system.close()

    def test_agg_span_frames_ship_sliced_z(self):
        system = build("local")
        server = system.servers[0]
        adapter = ServerAdapter(server)
        rng = np.random.default_rng(11)
        z = rng.integers(0, 1 << 20, size=(2, 8)).astype(np.uint32)
        full = server.aggregate_round_batch(["amt", "amt"], z)
        parts = []
        for span in ((0, 4), (4, 8)):
            lo, hi = span
            reply = adapter.dispatch(RpcMessage(
                "aggregate_round_batch",
                {"a": [["amt", "amt"], z[:, lo:hi], None], "k": {}},
                span=span))
            assert reply.kind == "__result__"
            parts.append(reply.payload)
        assert np.array_equal(np.concatenate(parts, axis=1), full)
        system.close()

    @pytest.mark.parametrize("kernel,payload,message", [
        ("psu_round_batch", sweep("psu", nonces=[1, 2]),
         "query_nonces must match"),
        ("psu_round_batch", sweep("psu"), "query_nonces must match"),
        ("aggregate_round_batch", {"a": [["amt"]], "k": {}},
         "required positional argument: 'z_matrix'"),
        ("aggregate_round_batch",
         {"a": [["amt"], [[1, 2, 3]]], "k": {}}, "does not cover span"),
        ("psi_round_batch", sweep(columns=[]), "at least one column"),
        ("cells", sweep("cells", cells=[0, 1, 2]), "does not cover span"),
        ("cells", sweep("cells", columns=[], cells=[0, 1, 2, 3]),
         "at least one column"),
    ])
    def test_malformed_span_requests_rejected(self, kernel, payload,
                                              message):
        # The round-1 kernels are reached through an indicator_round
        # frame carrying one sweep (``payload``).
        kind = kernel
        if kernel != "aggregate_round_batch":
            kind, payload = "indicator_round", {"a": [[payload]], "k": {}}
        system = build("local")
        adapter = ServerAdapter(system.servers[0])
        reply = adapter.dispatch(RpcMessage(kind, payload, span=(0, 4)))
        assert reply.kind == "__error__"
        assert message in reply.payload["message"]
        system.close()

    def test_span_beyond_sweep_length_rejected(self):
        system = build("local")
        adapter = ServerAdapter(system.servers[0])
        for kind, payload in [
            ("indicator_round", {"a": [[sweep()]], "k": {}}),
            ("indicator_round",
             {"a": [[sweep("psu", nonces=[1])]], "k": {}}),
            ("aggregate_round_batch",
             {"a": [["amt"], np.zeros((1, 99), dtype=np.uint32)], "k": {}}),
        ]:
            reply = adapter.dispatch(RpcMessage(kind, payload, span=(0, 99)))
            assert reply.kind == "__error__"
            assert "exceeds sweep length" in reply.payload["message"]
        system.close()


# -- the host loop, served in-process -----------------------------------------


class TestHostServing:
    """`serve_tcp` driven by a thread: bootstrap handshake, error
    frames, client-death resilience, and shutdown — the very loop the
    forked hosts run, exercised in-process."""

    @pytest.fixture()
    def served_host(self):
        import threading

        from repro.network.host import serve_tcp

        ports: list[int] = []
        ready = threading.Event()

        def announce(line, flush=True):
            ports.append(int(line.split()[1]))
            ready.set()

        thread = threading.Thread(target=serve_tcp, args=(0,),
                                  kwargs={"announce": announce}, daemon=True)
        thread.start()
        assert ready.wait(5)
        yield ports[0], thread
        if thread.is_alive():
            from repro.network.dispatch import PooledChannel
            PooledChannel.connect([("127.0.0.1", ports[0])]).shutdown_remote()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_bootstrap_and_kernel_cycle(self, served_host):
        from repro.network.dispatch import PooledChannel
        from repro.network.rpc import CONSTRUCT, server_params_to_wire

        port, _ = served_host
        system = build("local")
        channel = PooledChannel.connect([("127.0.0.1", port)])
        # Kernel requests before construction fail typed, never hang.
        with pytest.raises(ProtocolError, match="no entity constructed"):
            channel.call("owners_with", "k")
        params = system.initiator.server_params(0)
        reply = channel.send(RpcMessage(CONSTRUCT, {
            "entity": "server", "index": 0,
            "params": server_params_to_wire(params),
            "server_class": None, "kwargs": {}}))
        assert reply.payload["index"] == 0
        proxy = RemoteServer(0, params, channel)
        assert proxy.ping()["entity"] == "server"
        # Ship the local twin's shares, then sweep remotely — sharded,
        # so the host sweeps at the shipped shard count.
        local = system.servers[0]
        for owner_id in range(3):
            stored = local.store.get(owner_id, "k")
            proxy.receive_shares(owner_id, "k", stored.values, stored.kind)
        out, = proxy.indicator_round([sweep()], num_shards=2)
        assert np.array_equal(out, local.psi_round_batch(["k"]))
        channel.close()
        system.close()

    def test_construct_payload_validation(self, served_host):
        from repro.network.dispatch import PooledChannel
        from repro.network.rpc import CONSTRUCT

        port, _ = served_host
        channel = PooledChannel.connect([("127.0.0.1", port)])
        for payload, message in [
            (None, "must be a dict"),
            ({"entity": "owner"}, "cannot host entity kind"),
            ({"entity": "server", "index": 0, "params": {},
              "server_class": "os.system"}, "outside the repro package"),
            ({"entity": "server", "index": 0, "params": {},
              "server_class": "repro.missing.X"}, "cannot import"),
            ({"entity": "server", "index": 0, "params": {},
              "server_class": "repro.network.host.EntityHost"},
             "not a PrismServer subclass"),
        ]:
            with pytest.raises(ProtocolError, match=message):
                channel.send(RpcMessage(CONSTRUCT, payload))
        channel.close()

    def test_host_survives_bad_frames_and_dead_clients(self, served_host):
        import socket as socket_module

        from repro.network.codec import FULL_SPAN, decode_frame, encode_frame
        from repro.network.rpc import PING, recv_frame, send_frame

        port, _ = served_host
        # An undecodable request earns a cid-0 error frame; the
        # connection keeps serving.
        conn = socket_module.create_connection(("127.0.0.1", port))
        send_frame(conn, b"this is not a frame")
        frame = decode_frame(recv_frame(conn))
        assert frame.kind == "__error__"
        assert frame.correlation_id == 0
        # Dying mid-frame must not take the host down ...
        conn.sendall(b"\x10\x00")
        conn.close()
        # ... the next connection is served as if nothing happened.
        conn = socket_module.create_connection(("127.0.0.1", port))
        send_frame(conn, encode_frame(PING, 7, FULL_SPAN, None))
        frame = decode_frame(recv_frame(conn))
        assert frame.correlation_id == 7
        conn.close()

    def test_shutdown_request_stops_the_host(self, served_host):
        from repro.network.dispatch import PooledChannel

        port, thread = served_host
        PooledChannel.connect([("127.0.0.1", port)]).shutdown_remote()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_signal_landing_inside_untrack_does_not_deadlock(self):
        """SIGTERM handled while the serving loop holds the socket-list
        lock (mid track/untrack) must still drain, not self-deadlock."""
        import signal
        import socket
        import threading

        from repro.network.host import GracefulShutdown

        shutdown = GracefulShutdown()
        ours, theirs = socket.socketpair()
        shutdown.track(ours)

        def handle_signal_inside_the_lock():
            with shutdown._lock:  # what untrack() holds when it lands
                shutdown._handle(signal.SIGTERM, None)

        thread = threading.Thread(target=handle_signal_inside_the_lock,
                                  daemon=True)
        thread.start()
        thread.join(timeout=5)
        try:
            assert not thread.is_alive()
            assert shutdown.requested.is_set()
            assert ours.recv(1) == b""  # read side shut: the loop wakes
        finally:
            ours.close()
            theirs.close()

    def test_adapter_for_rejects_unknown_entities(self):
        from repro.network.host import adapter_for

        with pytest.raises(ProtocolError, match="no host adapter"):
            adapter_for(object())


# -- shared-memory deployment --------------------------------------------------


@needs_fork
class TestShmDeployment:
    """``deployment="shm"``: subprocess hosts + pre-fork share arenas."""

    def test_bit_identical_to_local(self, expected_table4):
        with build("shm") as system:
            assert run_table4(system) == expected_table4

    def test_mode_recorded(self):
        with build("shm") as system:
            system.psi("k")
            stats = system.channel_stats()
            assert stats["mode"] == "shm"
            assert stats["requests"] >= 2

    def test_spec_parses(self):
        assert Deployment.parse("shm").mode == "shm"
        assert not Deployment.parse("shm").is_local

    def test_large_payloads_skip_the_socket(self):
        """Above the shm threshold, share vectors ride the arena: the
        socket traffic collapses to constant-size reference frames."""
        def relations():
            return [
                Relation("a", {"k": list(range(1, 301))}),
                Relation("b", {"k": list(range(151, 451))}),
                Relation("c", {"k": list(range(101, 401))}),
            ]

        def build_4096(deployment):
            # 4096 one-byte χ shares clear the arena's 2 KiB threshold.
            return PrismSystem.build(
                relations(), Domain.integer_range("k", 4096), "k",
                with_verification=True, seed=3, deployment=deployment)

        results, sent = {}, {}
        for mode in ("subprocess", "shm"):
            with build_4096(mode) as system:
                psi = system.psi("k", verify=True)
                results[mode] = (sorted(psi.values),
                                 psi.membership.tolist(), psi.verified)
                sent[mode] = system.channel_stats()["bytes_sent"]
        assert results["shm"] == results["subprocess"]
        # Outsourcing ships 4096-cell share vectors per owner; through
        # the arena each costs a ~30-byte frame instead of ~4 KB.
        assert sent["shm"] < sent["subprocess"] / 2
