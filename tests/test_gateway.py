"""Tests for the multi-tenant serving gateway (PR 7).

Covers the tentpole acceptance criteria end to end against a real
gateway on a real socket: many concurrent sessions across tenants with
results bit-identical to a direct :class:`~repro.api.client.PrismClient`
over the same deployment, typed cross-tenant and admission refusals,
cross-client coalescing visible in the stats surface, graceful shutdown
(including forked entity hosts), and restart resilience.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import (
    AdmissionError,
    AuthError,
    PrismClient,
    ProtocolError,
    Q,
    QueryError,
)
from repro import Domain
from repro.core.results import (
    AggregateResult,
    CountResult,
    PhaseTimings,
    SetResult,
)
from repro.network.codec import FULL_SPAN, decode_frame, encode_frame
from repro.network.rpc import RESULT
from repro.serving import Gateway, GatewayClient
from repro.serving.admission import AdmissionController, TokenBucket
from repro.serving.session import result_from_wire, result_to_wire

PSI_SQL = ("SELECT disease FROM h1 INTERSECT SELECT disease FROM h2 "
           "INTERSECT SELECT disease FROM h3")
PSU_SQL = ("SELECT disease FROM h1 UNION SELECT disease FROM h2 "
           "UNION SELECT disease FROM h3")
COUNT_SQL = ("SELECT COUNT(disease) FROM h1 INTERSECT "
             "SELECT COUNT(disease) FROM h2 INTERSECT "
             "SELECT COUNT(disease) FROM h3")
SUM_SQL = ("SELECT disease, SUM(cost) FROM h1 INTERSECT "
           "SELECT disease, SUM(cost) FROM h2 INTERSECT "
           "SELECT disease, SUM(cost) FROM h3")

TENANTS = {"tok-alpha": "alpha", "tok-beta": "beta"}


def _assert_same_result(lhs, rhs):
    """Bit-identical comparison across the canonical result shapes."""
    assert type(lhs) is type(rhs)
    if isinstance(lhs, SetResult):
        assert list(lhs.values) == list(rhs.values)
        assert np.array_equal(np.asarray(lhs.membership),
                              np.asarray(rhs.membership))
    elif isinstance(lhs, CountResult):
        assert lhs.count == rhs.count
    elif isinstance(lhs, dict):
        assert list(lhs.keys()) == list(rhs.keys())
        for key in lhs:
            _assert_same_result(lhs[key], rhs[key])
    elif isinstance(lhs, tuple):
        assert len(lhs) == len(rhs)
        _assert_same_result(lhs[0], rhs[0])
    else:  # Aggregate/Extrema/Median results all expose per_value
        assert lhs.per_value == rhs.per_value


@pytest.fixture()
def gateway(hospital_relations, disease_domain):
    """A running gateway with tenant alpha's 'hospital' dataset."""
    gw = Gateway(TENANTS).start()
    gw.register_dataset("alpha", "hospital", hospital_relations,
                        disease_domain, "disease",
                        agg_attributes=("cost", "age"),
                        with_verification=True, seed=11)
    yield gw
    gw.shutdown()


@pytest.fixture()
def direct_client(hospital_system):
    """A direct client over an identical deployment (same seed)."""
    client = PrismClient(hospital_system)
    yield client
    client.close()


def _connect(gateway, token="tok-alpha", **kwargs):
    kwargs.setdefault("dataset", "hospital")
    kwargs.setdefault("request_timeout", 60.0)
    return GatewayClient("127.0.0.1", gateway.port, token, **kwargs)


class TestSessionBasics:
    def test_hello_pins_tenant(self, gateway):
        with _connect(gateway) as client:
            assert client.tenant == "alpha"
        with _connect(gateway, token="tok-beta") as client:
            assert client.tenant == "beta"

    def test_unknown_token_refused(self, gateway):
        with pytest.raises(AuthError, match="unknown or missing"):
            _connect(gateway, token="tok-wrong")

    def test_request_before_hello_refused(self, gateway):
        from repro.network.dispatch import _MuxConnection
        from repro.network.dispatch import _connect_retry
        from repro.network.rpc import RpcMessage
        from repro.serving import session as proto
        sock = _connect_retry("127.0.0.1", gateway.port, 5.0)
        conn = _MuxConnection(sock, "test")
        try:
            pending = conn.request(RpcMessage(proto.DATASETS, None))
            with pytest.raises(AuthError, match="gw:hello"):
                pending.result(10.0)
        finally:
            conn.close()

    def test_entity_rpc_kinds_not_served(self, gateway):
        with _connect(gateway) as client:
            from repro.network.rpc import RpcMessage
            with pytest.raises(ProtocolError, match="not a gateway"):
                client._conn.request(
                    RpcMessage("indicator_round", None)).result(10.0)

    def test_ping_and_healthz(self, gateway):
        with _connect(gateway) as client:
            assert client.ping()
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["accepting"] is True
            assert health["datasets"] == 1

    def test_datasets_lists_own_namespace(self, gateway):
        with _connect(gateway) as client:
            assert client.datasets() == ["hospital"]
        with _connect(gateway, token="tok-beta") as client:
            assert client.datasets() == []


class TestBitIdentical:
    """Gateway sessions return exactly what a direct client returns."""

    @pytest.mark.parametrize("sql", [PSI_SQL, PSU_SQL, COUNT_SQL, SUM_SQL])
    def test_sql_forms(self, gateway, direct_client, sql):
        with _connect(gateway) as client:
            _assert_same_result(client.execute(sql),
                                direct_client.execute(sql))

    def test_builder_form_with_verification(self, gateway, direct_client):
        query = Q.psi("disease").verify()
        with _connect(gateway) as client:
            _assert_same_result(client.execute(query),
                                direct_client.execute(query))

    def test_multi_aggregate_result_map(self, gateway, direct_client):
        query = Q.psi("disease").sum("cost").avg("age")
        with _connect(gateway) as client:
            _assert_same_result(client.execute(query),
                                direct_client.execute(query))

    def test_explain_matches(self, gateway, direct_client):
        with _connect(gateway) as client:
            assert client.execute("EXPLAIN " + PSI_SQL) == \
                direct_client.execute("EXPLAIN " + PSI_SQL)

    def test_sixteen_sessions_two_tenants(self, hospital_relations,
                                          disease_domain, direct_client):
        """16 concurrent sessions, 2 tenants, one resident deployment."""
        gw = Gateway(TENANTS).start()
        try:
            gw.register_dataset("alpha", "hospital", hospital_relations,
                                disease_domain, "disease",
                                agg_attributes=("cost", "age"),
                                with_verification=True, seed=11,
                                shared=True)
            queries = [PSI_SQL, PSU_SQL, COUNT_SQL, SUM_SQL]
            expected = [direct_client.execute(sql) for sql in queries]
            errors = []
            barrier = threading.Barrier(16)

            def session(worker: int) -> None:
                token = "tok-alpha" if worker % 2 == 0 else "tok-beta"
                dataset = ("hospital" if token == "tok-alpha"
                           else "alpha/hospital")
                try:
                    with _connect(gw, token=token, dataset=dataset) as c:
                        barrier.wait(timeout=30)
                        for index, sql in enumerate(queries):
                            _assert_same_result(c.execute(sql),
                                                expected[index])
                except Exception as exc:  # surfaced below with context
                    errors.append((worker, exc))

            threads = [threading.Thread(target=session, args=(i,))
                       for i in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, f"session failures: {errors}"
            stats = gw._stats()
            assert stats["gateway"]["sessions_total"] >= 16
            by_tenant = stats["datasets"]["alpha/hospital"][
                "queries_by_tenant"]
            assert by_tenant["alpha"] == 8 * len(queries)
            assert by_tenant["beta"] == 8 * len(queries)
        finally:
            gw.shutdown()


class TestTenancy:
    def test_cross_tenant_access_refused(self, gateway):
        with _connect(gateway, token="tok-beta") as client:
            with pytest.raises(AuthError, match="may not access"):
                client.execute(PSI_SQL, dataset="alpha/hospital")

    def test_probing_foreign_namespace_indistinguishable(self, gateway):
        """A missing foreign name refuses exactly like a private one."""
        with _connect(gateway, token="tok-beta") as client:
            with pytest.raises(AuthError, match="may not access"):
                client.execute(PSI_SQL, dataset="alpha/no-such-dataset")

    def test_own_missing_dataset_is_query_error(self, gateway):
        with _connect(gateway) as client:
            with pytest.raises(QueryError, match="no dataset named"):
                client.execute(PSI_SQL, dataset="nope")

    @pytest.mark.parametrize("field", ["num_shards", "num_threads"])
    def test_query_may_not_set_server_span_count(self, gateway, field):
        """The dataset's deployment owns its sweeps' span count: a raw
        QUERY frame naming one is refused typed, and nothing runs."""
        from repro.network.rpc import RpcMessage
        from repro.serving import session as proto
        funnel = gateway.registry.resolve("alpha", "hospital").client
        with _connect(gateway) as client:
            payload = {"dataset": "hospital",
                       "query": proto.query_to_wire(PSI_SQL, client.planner),
                       field: 65536}
            with pytest.raises(ProtocolError, match=field):
                client._conn.request(
                    RpcMessage(proto.QUERY, payload)).result(10.0)
            assert funnel.stats["scheduler"]["submitted"] == 0
            # The session stays usable for well-formed queries.
            assert client.execute(PSI_SQL).values

    def test_out_of_range_querier_refused_typed(self, gateway):
        """A remote plan naming a querier outside [0, m) comes back as a
        typed QueryError, and nothing runs on the dataset."""
        funnel = gateway.registry.resolve("alpha", "hospital").client
        transport = funnel.system.transport.stats
        messages = transport.total_messages
        with _connect(gateway) as client:
            with pytest.raises(QueryError, match="querier -1"):
                client.execute(Q.psi("disease").querier(-1))
            assert transport.total_messages == messages
            assert funnel.stats["queries"] == 0
            # The session stays usable for well-formed queries.
            assert client.execute(PSI_SQL).values

    def test_shared_dataset_crosses_tenants(self, gateway,
                                            hospital_relations,
                                            disease_domain):
        gateway.register_dataset("alpha", "shared-hospital",
                                 hospital_relations, disease_domain,
                                 "disease", seed=3, shared=True)
        with _connect(gateway, token="tok-beta") as client:
            result = client.execute(PSI_SQL, dataset="alpha/shared-hospital")
            assert isinstance(result, SetResult)
            assert "alpha/shared-hospital" in client.datasets()

    def test_grants_admit_named_tenants_only(self, gateway,
                                             hospital_relations,
                                             disease_domain):
        gateway.register_dataset("alpha", "granted", hospital_relations,
                                 disease_domain, "disease", seed=4,
                                 grants=("beta",))
        with _connect(gateway, token="tok-beta") as client:
            assert isinstance(client.execute(PSI_SQL, dataset="alpha/granted"),
                              SetResult)

    def test_explain_is_tenant_scoped_too(self, gateway):
        with _connect(gateway, token="tok-beta") as client:
            with pytest.raises(AuthError):
                client.explain(PSI_SQL, dataset="alpha/hospital")

    def test_register_lands_in_own_namespace(self, gateway,
                                             hospital_relations,
                                             disease_domain):
        with _connect(gateway, token="tok-beta") as client:
            reply = client.register("mine", hospital_relations,
                                    disease_domain, "disease", seed=5)
            assert reply == {"dataset": "mine", "owner": "beta",
                             "owners": 3, "shared": False}
            assert "mine" in client.datasets()
            result = client.execute(PSI_SQL, dataset="mine")
            assert isinstance(result, SetResult)
        with _connect(gateway) as alpha:
            assert "mine" not in alpha.datasets()
            with pytest.raises(AuthError):
                alpha.execute(PSI_SQL, dataset="beta/mine")


class TestAdmission:
    def test_token_bucket_refuses_then_refills(self):
        # Slow enough that no token refills between the three calls.
        bucket = TokenBucket(rate=20.0, burst=2.0)
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        retry = bucket.try_acquire()
        assert retry is not None and retry > 0
        time.sleep(retry + 0.01)
        assert bucket.try_acquire() is None

    def test_controller_inflight_bound(self):
        controller = AdmissionController(max_inflight=2)
        controller.admit("a")
        controller.admit("b")
        with pytest.raises(AdmissionError, match="queue is full"):
            controller.admit("a")
        controller.release()
        controller.admit("a")  # slot freed
        stats = controller.stats
        assert stats["rejected_queue_full"] == 1
        assert stats["admitted"] == 3

    def test_rate_limit_rejects_with_retry_after(self, hospital_relations,
                                                 disease_domain):
        gw = Gateway(TENANTS, rate_limit=1.0, burst=2.0).start()
        try:
            gw.register_dataset("alpha", "hospital", hospital_relations,
                                disease_domain, "disease", seed=11)
            with _connect(gw) as client:
                client.execute(PSI_SQL)
                client.execute(PSI_SQL)
                with pytest.raises(AdmissionError,
                                   match="over its rate limit") as info:
                    client.execute(PSI_SQL)
                assert info.value.retry_after is not None
                assert info.value.retry_after > 0
        finally:
            gw.shutdown()

    def test_inflight_bound_rejects_typed(self, hospital_relations,
                                          disease_domain):
        gw = Gateway(TENANTS, max_inflight=0).start()
        try:
            gw.register_dataset("alpha", "hospital", hospital_relations,
                                disease_domain, "disease", seed=11)
            with _connect(gw) as client:
                with pytest.raises(AdmissionError, match="queue is full"):
                    client.execute(PSI_SQL)
        finally:
            gw.shutdown()

    def test_rejections_counted_per_tenant(self, hospital_relations,
                                           disease_domain):
        gw = Gateway(TENANTS, max_inflight=0).start()
        try:
            gw.register_dataset("alpha", "hospital", hospital_relations,
                                disease_domain, "disease", seed=11)
            with _connect(gw) as client:
                with pytest.raises(AdmissionError):
                    client.execute(PSI_SQL)
                stats = client.gateway_stats()
                assert stats["tenants"]["alpha"]["rejected_admission"] == 1
                assert stats["admission"]["rejected_queue_full"] == 1
        finally:
            gw.shutdown()


class TestCoalescing:
    def test_cross_session_submissions_fuse(self, gateway):
        """Submissions from distinct sessions share one batch tick."""
        dataset = gateway.registry.resolve("alpha", "hospital")
        clients = [_connect(gateway) for _ in range(6)]
        try:
            with dataset.client.hold():
                futures = [client.submit(PSI_SQL) for client in clients]
            results = [future.result() for future in futures]
        finally:
            for client in clients:
                client.close()
        for result in results:
            _assert_same_result(result, results[0])
        scheduler = dataset.stats["scheduler"]
        assert scheduler["max_coalesced"] >= 2
        assert scheduler["submitted"] >= 6
        # 6 identical queries in one tick: the fused plan dedups rows.
        assert dataset.stats["fusion"]["rows_deduplicated"] > 0

    def test_stats_expose_queries_per_tick(self, gateway):
        dataset = gateway.registry.resolve("alpha", "hospital")
        clients = [_connect(gateway) for _ in range(4)]
        try:
            with dataset.client.hold():
                futures = [client.submit(PSU_SQL) for client in clients]
            for future in futures:
                future.result()
        finally:
            for client in clients:
                client.close()
        scheduler = dataset.stats["scheduler"]
        assert scheduler["ticks"] >= 1
        assert scheduler["submitted"] / scheduler["ticks"] > 1.5


class TestGracefulShutdown:
    def test_shutdown_refuses_new_sessions(self, hospital_relations,
                                           disease_domain):
        gw = Gateway(TENANTS).start()
        gw.register_dataset("alpha", "hospital", hospital_relations,
                            disease_domain, "disease", seed=11)
        port = gw.port
        gw.shutdown()
        with pytest.raises(ProtocolError):
            GatewayClient("127.0.0.1", port, "tok-alpha",
                          connect_timeout=1.0, request_timeout=5.0)

    def test_shutdown_with_idle_session_is_prompt(self, hospital_relations,
                                                  disease_domain):
        """Shutdown wakes the blocked accept() at once: no join timeout."""
        gw = Gateway(TENANTS).start()
        gw.register_dataset("alpha", "hospital", hospital_relations,
                            disease_domain, "disease", seed=11)
        client = _connect(gw)
        try:
            start = time.monotonic()
            gw.shutdown()
            elapsed = time.monotonic() - start
        finally:
            client.close()
        assert elapsed < 1.0

    def test_forked_hosts_die_with_gateway(self, hospital_relations,
                                           disease_domain):
        """deployment='forked-tcp': no orphaned entity hosts survive."""
        gw = Gateway(TENANTS, deployment="forked-tcp").start()
        dataset = gw.register_dataset("alpha", "hospital",
                                      hospital_relations, disease_domain,
                                      "disease", seed=11)
        processes = list(dataset.processes)
        assert len(processes) == 3
        assert all(process.is_alive() for process in processes)
        with _connect(gw) as client:
            result = client.execute(PSI_SQL)
            assert isinstance(result, SetResult)
        gw.shutdown()
        deadline = time.monotonic() + 10
        while (any(process.is_alive() for process in processes)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not any(process.is_alive() for process in processes)

    def test_entity_host_drains_on_sigterm(self):
        """launch_forked_hosts children exit cleanly on terminate()."""
        from repro.network.host import launch_forked_hosts
        spec, processes = launch_forked_hosts(1)
        try:
            assert processes[0].is_alive()
            processes[0].terminate()
            processes[0].join(timeout=10)
            # A graceful drain exits 0; a default SIGTERM death is -15.
            assert processes[0].exitcode == 0
        finally:
            for process in processes:
                if process.is_alive():
                    process.kill()

    def test_gateway_cli_sigterm_exits_zero(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serving.gateway", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))))
        try:
            # Skip interpreter noise (e.g. runpy warnings) before the
            # announcement line.
            for _ in range(10):
                line = process.stdout.readline()
                if line.startswith("GATEWAY LISTENING "):
                    break
            assert line.startswith("GATEWAY LISTENING "), line
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
            assert process.returncode == 0
            assert "GATEWAY STOPPED" in out
        finally:
            if process.poll() is None:
                process.kill()


class TestRestartResilience:
    def test_killed_gateway_raises_typed_then_fresh_connect_works(
            self, hospital_relations, disease_domain, direct_client):
        gw = Gateway(TENANTS).start()
        gw.register_dataset("alpha", "hospital", hospital_relations,
                            disease_domain, "disease",
                            agg_attributes=("cost", "age"),
                            with_verification=True, seed=11)
        client = _connect(gw)
        baseline = client.execute(PSI_SQL)
        gw.shutdown()  # the resident process goes away under the session
        with pytest.raises(ProtocolError):
            client.execute(PSI_SQL)
        client.close()
        # A replacement gateway over the same data serves a fresh
        # session the same bits as before the kill.
        gw2 = Gateway(TENANTS).start()
        try:
            gw2.register_dataset("alpha", "hospital", hospital_relations,
                                 disease_domain, "disease",
                                 agg_attributes=("cost", "age"),
                                 with_verification=True, seed=11)
            with _connect(gw2) as fresh:
                _assert_same_result(fresh.execute(PSI_SQL), baseline)
                _assert_same_result(fresh.execute(PSI_SQL),
                                    direct_client.execute(PSI_SQL))
        finally:
            gw2.shutdown()


# -- session result wire size ---------------------------------------------------

#: A ``gateway_tcp``-sized answer: n values out of a b-cell domain.
_B, _N = 4096, 2176


def _timings() -> PhaseTimings:
    timings = PhaseTimings()
    for phase, seconds in (("server", 1.2e-3), ("owner", 3.4e-4),
                           ("announcer", 5.6e-5)):
        timings.add(phase, seconds)
    return timings


_TRAFFIC = {"rounds": 2, "messages": 12, "bytes": 81_234,
            "owner_to_server_bytes": 0, "server_to_owner_bytes": 40_960,
            "server_to_announcer_bytes": 24_576, "server_to_server_bytes": 0}


def _result_frame(result) -> tuple[int, object]:
    blob = encode_frame(RESULT, 7, FULL_SPAN, result_to_wire(result))
    return len(blob), result_from_wire(decode_frame(blob).payload)


def _set_result(domain) -> SetResult:
    cells = np.sort(np.random.default_rng(5).choice(_B, _N, replace=False))
    membership = np.zeros(_B, dtype=bool)
    membership[cells] = True
    return SetResult(values=domain.values_at(cells), membership=membership,
                     timings=_timings(), traffic=dict(_TRAFFIC),
                     verified=True)


class TestSessionResultBudget:
    """Byte budgets for the answers a session ships: a value list costs
    8 bytes an item and a value → aggregate map 16 bytes an entry, plus
    a fixed envelope, never a tagged item per element."""

    def test_integer_set_result(self):
        result = _set_result(Domain.integer_range("OK", _B))
        nbytes, back = _result_frame(result)
        assert back.values == result.values
        assert all(type(v) is int for v in back.values)
        assert np.array_equal(back.membership, result.membership)
        assert back.membership.dtype == bool
        assert back.timings.seconds == result.timings.seconds
        assert back.traffic == result.traffic and back.verified
        # The membership travels bit-packed: ceil(b / 8) bytes.
        assert nbytes <= 8 * _N + (_B + 7) // 8 + 2048

    @pytest.mark.parametrize("average", [False, True])
    def test_aggregate_result(self, average):
        values = _set_result(Domain.integer_range("OK", _B)).values
        per_value = {v: (v * 7919 % 100_003) / 3 if average
                     else v * 7919 % 100_003 for v in values}
        result = AggregateResult(per_value=per_value, timings=_timings(),
                                 traffic=dict(_TRAFFIC), verified=True)
        nbytes, back = _result_frame(result)
        assert back.per_value == per_value
        assert list(back.per_value) == values
        kind = float if average else int
        assert all(type(k) is int and type(v) is kind
                   for k, v in back.per_value.items())
        assert nbytes <= 16 * _N + 2048

    def test_string_domain_set_result(self):
        domain = Domain("disease", [f"d{i:04d}" for i in range(_B)])
        result = _set_result(domain)
        nbytes, back = _result_frame(result)
        assert back.values == result.values
        assert all(type(v) is str for v in back.values)
        assert np.array_equal(back.membership, result.membership)
        # Strings travel one tagged item each: 1 tag + 8 length + 5.
        assert nbytes > 14 * _N + (_B + 7) // 8

    @pytest.mark.parametrize("cells", [0, 1, 7, 8, 9, _B])
    def test_membership_round_trips_at_any_cell_count(self, cells):
        membership = np.arange(cells) % 3 == 1
        wire = result_to_wire(SetResult(values=[], membership=membership,
                                        timings=_timings(), traffic={}))
        assert wire["membership"].size == (cells + 7) // 8
        back = result_from_wire(
            decode_frame(encode_frame(RESULT, 1, FULL_SPAN, wire)).payload)
        assert back.membership.dtype == bool
        assert np.array_equal(back.membership, membership)

    @pytest.mark.parametrize("tamper", ["short", "long", "pad", "dtype",
                                        "list"])
    def test_malformed_membership_is_a_protocol_error(self, tamper):
        wire = result_to_wire(SetResult(
            values=[], membership=np.ones(13, dtype=bool),
            timings=_timings(), traffic={}))
        packed = wire["membership"]
        wire["membership"] = {
            "short": packed[:1],
            "long": np.append(packed, np.uint8(0)),
            "pad": packed | np.array([0, 1], dtype=np.uint8),
            "dtype": packed.astype(np.uint16),
            "list": packed.tolist(),
        }[tamper]
        with pytest.raises(ProtocolError, match="membership"):
            result_from_wire(wire)
