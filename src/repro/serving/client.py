"""The gateway-session client: PrismClient's surface over a socket.

:class:`GatewayClient` mirrors the :class:`~repro.api.client.PrismClient`
query surface — ``execute`` / ``execute_many`` / ``submit`` / ``explain``
— but sends every call to a resident :class:`~repro.serving.gateway
.Gateway` instead of owning a deployment.  Rich query forms lower to the
:class:`~repro.api.plan.LogicalPlan` IR *client-side* (the same
:class:`~repro.api.planner.Planner` a direct client uses), so the
gateway executes exactly the plan the caller built; SQL travels
verbatim.

Transport is one multiplexed connection of the kind that reaches TCP
entity hosts (:class:`~repro.network.dispatch._MuxConnection`), driven
by the threads that use it, with no I/O thread: ``submit`` writes its
request at once, and whichever caller waits on a reply reads the
socket, routing every reply by correlation id to its own future in
whatever order the gateway finishes them.  Many in-flight submissions
from one client therefore coalesce gateway-side just like submissions
from many clients.

Typed errors cross the socket: a tenancy violation raises
:class:`~repro.exceptions.AuthError` here, over-limit traffic raises
:class:`~repro.exceptions.AdmissionError` (with ``retry_after`` when
the gateway provided one), exactly as if raised in-process.  And the
gateway itself dying mid-call raises
:class:`~repro.exceptions.GatewayDisconnected` carrying the last known
gateway address — never a bare transport error.
"""

from __future__ import annotations

from repro.api.planner import Planner
from repro.api.sql import split_explain
from repro.exceptions import GatewayDisconnected, QueryError
from repro.network.dispatch import (
    ConnectionLost,
    _connect_retry,
    _lifecycle_timeout,
    _MuxConnection,
)
from repro.network.rpc import PING, RpcMessage
from repro.serving import session as proto


class GatewayFuture:
    """Handle for one pipelined gateway query's eventual result."""

    def __init__(self, pending, timeout: float | None = None,
                 address: str | None = None):
        self._pending = pending
        self._timeout = timeout
        self._address = address

    def result(self, timeout: float | None = None):
        """Block for the query result; raises what the gateway raised."""
        try:
            reply = self._pending.result(
                self._timeout if timeout is None else timeout)
        except ConnectionLost as exc:
            raise GatewayDisconnected(
                f"gateway at {self._address} disconnected mid-call: {exc}",
                address=self._address) from exc
        return proto.result_from_wire(reply.payload)


class GatewayClient:
    """A tenant session against a running serving gateway.

    Args:
        host, port: the gateway's listen address.
        token: bearer token identifying the tenant (see
            :class:`~repro.serving.tenancy.TenantDirectory`).
        dataset: default dataset reference for queries (a bare name in
            this tenant's namespace, or ``"owner/name"``); any call may
            override it.
        connect_timeout: seconds to retry the TCP connect (the gateway
            may still be booting).
        request_timeout: per-request reply deadline (``None``: wait
            forever — matching entity channels).
        probe_timeout: reply deadline for lifecycle calls (``ping`` /
            ``healthz``) — bounded even when queries may take minutes.
    """

    def __init__(self, host: str, port: int, token: str,
                 dataset: str | None = None,
                 connect_timeout: float = 10.0,
                 request_timeout: float | None = None,
                 probe_timeout: float | None = 5.0):
        self.request_timeout = request_timeout
        self.probe_timeout = probe_timeout
        self.default_dataset = dataset
        #: Last known gateway address (carried on GatewayDisconnected).
        self.address = f"{host}:{port}"
        self.planner = Planner()
        self._queries = 0
        self._explains = 0
        sock = _connect_retry(host, port, connect_timeout)
        self._conn = _MuxConnection(sock, f"gateway {host}:{port}")
        try:
            hello = self._call(proto.HELLO,
                               {"token": token,
                                "protocol": proto.PROTOCOL_VERSION})
        except BaseException:
            # Nothing reads an idle connection, so a refused session
            # must close its own socket.
            self.close()
            raise
        #: The tenant this session authenticated as.
        self.tenant = hello["tenant"]

    # -- datasets -------------------------------------------------------------

    def register(self, name: str, relations, domain, psi_attribute,
                 agg_attributes=(), with_verification: bool = False,
                 shared: bool = False, grants=(), seed: int = 0) -> dict:
        """Outsource a named dataset into this tenant's namespace."""
        return self._call(proto.REGISTER, {
            "name": name,
            "relations": proto.relations_to_wire(relations),
            "domain": proto.domain_to_wire(domain),
            "psi_attribute": psi_attribute,
            "agg_attributes": list(agg_attributes),
            "with_verification": with_verification,
            "shared": shared,
            "grants": list(grants),
            "seed": seed,
        })

    def datasets(self) -> list:
        """Dataset refs this tenant may query (own + shared/granted)."""
        return list(self._call(proto.DATASETS, None))

    # -- queries --------------------------------------------------------------

    def submit(self, query, dataset: str | None = None) -> GatewayFuture:
        """Pipeline one query; returns a future-like reply handle.

        All submissions in flight at the gateway dataset's next drain
        tick — this client's and every other session's — execute as one
        fused batch.
        """
        payload = {"dataset": self._dataset(dataset),
                   "query": proto.query_to_wire(query, self.planner)}
        try:
            pending = self._conn.request(RpcMessage(proto.QUERY, payload))
        except ConnectionLost as exc:
            raise GatewayDisconnected(
                f"gateway at {self.address} is gone: {exc}",
                address=self.address) from exc
        self._queries += 1
        return GatewayFuture(pending, self.request_timeout, self.address)

    def execute(self, query, dataset: str | None = None):
        """Run one query of any supported form, blocking for its result.

        SQL strings may carry an ``EXPLAIN`` prefix, in which case the
        plan's description is returned and nothing executes — same
        contract as :meth:`PrismClient.execute`.
        """
        if isinstance(query, str):
            was_explain, rest = split_explain(query)
            if was_explain:
                return self.explain(rest, dataset=dataset)
        return self.submit(query, dataset=dataset).result()

    def execute_many(self, queries, dataset: str | None = None) -> list:
        """Run many queries; all are pipelined before any reply is read."""
        futures = [self.submit(query, dataset=dataset) for query in queries]
        return [future.result() for future in futures]

    def explain(self, query, dataset: str | None = None) -> str:
        """The plan's description + dispatch routes, without executing."""
        text = self._call(proto.EXPLAIN,
                          {"dataset": self._dataset(dataset),
                           "query": proto.query_to_wire(query,
                                                        self.planner)})
        self._explains += 1
        return text

    # -- ops surface ----------------------------------------------------------

    def gateway_stats(self) -> dict:
        """The gateway's ops counters: sessions, admission, tenants,
        per-dataset scheduler/fusion stats."""
        return self._call(proto.STATS, None)

    def healthz(self) -> dict:
        """The gateway's liveness report (short probe deadline)."""
        return self._call(proto.HEALTHZ, None,
                          timeout=_lifecycle_timeout(self.request_timeout,
                                                     self.probe_timeout))

    def ping(self) -> bool:
        return self._call(PING, None,
                          timeout=_lifecycle_timeout(
                              self.request_timeout,
                              self.probe_timeout)) == "pong"

    @property
    def stats(self) -> dict:
        """This session's local counters."""
        return {"tenant": self.tenant, "queries": self._queries,
                "explains": self._explains,
                "transport": dict(self._conn.stats)}

    # -- plumbing -------------------------------------------------------------

    def _dataset(self, override: str | None) -> str:
        dataset = override or self.default_dataset
        if dataset is None:
            raise QueryError(
                "no dataset named: pass dataset= or set a default on the "
                "client")
        return str(dataset)

    _UNSET = object()

    def _call(self, kind: str, payload, timeout=_UNSET):
        if timeout is self._UNSET:
            timeout = self.request_timeout
        try:
            reply = self._conn.request(RpcMessage(kind, payload)).result(
                timeout)
        except ConnectionLost as exc:
            raise GatewayDisconnected(
                f"gateway at {self.address} disconnected mid-call: {exc}",
                address=self.address) from exc
        return reply.payload

    def close(self) -> None:
        """Close the session connection (idempotent)."""
        if not self._conn.closed:
            self._conn.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
