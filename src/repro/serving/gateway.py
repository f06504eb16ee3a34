"""The multi-tenant serving gateway: one resident deployment, many clients.

``repro-gateway`` (also ``python -m repro.serving.gateway``) runs a
resident process that owns Prism deployments and serves many concurrent
client sessions over the framed RPC protocol of
:mod:`repro.network.rpc`, in the ``gw:`` message namespace of
:mod:`repro.serving.session`.  The lifecycle the paper's one-shot
harness collapses into a single call — build, outsource, query, tear
down — here splits the way a warehouse serves it: datasets are
registered (outsourced) **once** and queried **many** times by name,
from any number of sessions, until the gateway retires them.

Layering of one request, top to bottom — tenancy and admission live in
the *dispatch* layer, so no handler ever sees a request it should not:

1. **session** — a thread per connection reads frames; the first must
   be ``gw:hello`` carrying a bearer token, which pins the session to a
   tenant (:class:`~repro.serving.tenancy.TenantDirectory`);
2. **admission** — per-tenant token buckets and the gateway-wide
   in-flight bound (:class:`~repro.serving.admission
   .AdmissionController`) refuse over-limit traffic with a typed
   :class:`~repro.exceptions.AdmissionError` before any work starts;
3. **tenancy** — the dataset reference resolves in the caller's
   namespace (:class:`~repro.serving.tenancy.DatasetRegistry`);
   cross-tenant refs are refused with a typed
   :class:`~repro.exceptions.AuthError` unless shared or granted;
4. **fusion** — the admitted query goes into the *dataset's* single
   :class:`~repro.api.client.PrismClient` coalescing scheduler, where
   submissions from different sessions — and different tenants, for a
   shared dataset — fuse into one :class:`~repro.core.batch.QueryBatch`
   tick; replies return out-of-order by correlation id as futures
   complete.

Shutdown is graceful: SIGTERM/SIGINT (or :meth:`Gateway.shutdown`)
stops accepting sessions, refuses new work with ``AdmissionError``,
drains admitted in-flight requests, then closes every dataset — which
terminates any entity-host processes the gateway forked, so no orphan
survives the gateway.
"""

from __future__ import annotations

import argparse
import signal
import socket
import sys
import threading
import time

from repro.api.client import PrismClient
from repro.core.system import PrismSystem
from repro.exceptions import (
    AdmissionError,
    AuthError,
    ProtocolError,
)
from repro.network.codec import (
    FULL_SPAN,
    decode_frame,
    encode_frame,
    is_gateway_kind,
)
from repro.network.host import (
    launch_forked_hosts,
    launch_forked_pools,
    pools_spec,
)
from repro.network.supervisor import HostSupervisor
from repro.network.rpc import (
    ERROR,
    PING,
    RESULT,
    recv_frame,
    send_frame,
)
from repro.serving import session as proto
from repro.serving.admission import AdmissionController
from repro.serving.tenancy import (
    Dataset,
    DatasetRegistry,
    TenantDirectory,
    reap_processes,
)


class _Session:
    """One connected client: socket, reply lock, authenticated tenant."""

    _ids = iter(range(1, 1 << 62))

    def __init__(self, sock: socket.socket, address):
        self.sock = sock
        self.address = address
        self.tenant: str | None = None
        self.send_lock = threading.Lock()
        self.id = next(self._ids)


class Gateway:
    """A resident serving gateway over one deployment mode.

    Args:
        tenants: ``{token: tenant-name}`` bearer-token directory.
        deployment: where each dataset's entities live — any
            :class:`~repro.core.system.PrismSystem` deployment spec
            (``"local"``, ``"subprocess"``, ``"tcp://..."`` including
            pooled forms), ``"forked-tcp"`` to have the gateway fork
            three entity-host processes per dataset and tear them down
            with it, or ``"forked-tcp:N"`` (N ≥ 2) for N supervised
            replicas per server role — members that die are failed
            over, respawned, and warm-rejoined automatically.
        host, port: listen address (``port=0``: ephemeral, see
            :attr:`port` after :meth:`start`).
        max_inflight: gateway-wide concurrent-query bound.
        rate_limit, burst: default per-tenant token-bucket parameters
            (requests/second and bucket capacity; ``None`` disables).
        tenant_rates: per-tenant ``{tenant: rate}`` or
            ``{tenant: (rate, burst)}`` overrides.
        coalesce_window: upper bound, in seconds, on how long each
            dataset's shared :class:`~repro.api.client.PrismClient`
            scheduler waits for the previous tick's submitters to come
            back before it drains.
        drain_timeout: seconds :meth:`shutdown` waits for in-flight
            requests before closing anyway.
    """

    def __init__(self, tenants: dict, deployment: str = "local",
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int | None = 64,
                 rate_limit: float | None = None,
                 burst: float | None = None,
                 tenant_rates: dict | None = None,
                 coalesce_window: float = 0.002,
                 drain_timeout: float = 10.0):
        self.directory = TenantDirectory(tenants)
        self.registry = DatasetRegistry()
        self.admission = AdmissionController(
            max_inflight=max_inflight, default_rate=rate_limit,
            default_burst=burst, tenant_rates=tenant_rates)
        self.deployment = deployment
        self.bind_host = host
        self.bind_port = port
        self.coalesce_window = coalesce_window
        self.drain_timeout = drain_timeout
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._session_threads: list[threading.Thread] = []
        self._sessions: set[_Session] = set()
        self._lock = threading.Lock()
        self._closing = False
        self._closed = False
        self._started = time.monotonic()
        self._sessions_total = 0
        self._tenant_counters: dict[str, dict] = {}

    # -- datasets -------------------------------------------------------------

    def register_dataset(self, tenant: str, name: str, relations, domain,
                         psi_attribute, agg_attributes=(),
                         with_verification: bool = False,
                         shared: bool = False, grants=(), seed: int = 0,
                         **system_options) -> Dataset:
        """Build + outsource a named dataset under ``tenant``'s namespace.

        The expensive Phase-1 outsourcing runs exactly once, here; every
        later query hits the resident system.  With the gateway's
        ``"forked-tcp"`` deployment this forks three entity hosts whose
        lifetime is tied to the dataset (and therefore the gateway).
        """
        deployment = self.deployment
        processes = []
        pools = None
        pool_size = 1
        if isinstance(deployment, str) and deployment.startswith("forked-tcp"):
            _, _, suffix = deployment.partition(":")
            pool_size = int(suffix) if suffix else 1
            if pool_size <= 1:
                deployment, processes = launch_forked_hosts(3)
            else:
                pools, processes = launch_forked_pools([pool_size] * 3)
                deployment = pools_spec(pools)
        system = None
        try:
            system = PrismSystem.build(
                relations, domain, psi_attribute,
                agg_attributes=agg_attributes,
                with_verification=with_verification,
                seed=seed, deployment=deployment, **system_options)
            if pools is not None:
                # Self-healing pools: the supervisor owns the forked
                # processes from here (system.close() reaps through it).
                HostSupervisor(system, pools, processes).start()
                processes = []
            client = PrismClient(system,
                                 coalesce_window=self.coalesce_window)
            dataset = Dataset(tenant, name, system, client,
                              shared=shared, grants=grants,
                              processes=processes)
            self.registry.register(dataset)
        except BaseException:
            if system is not None:
                system.close()
            reap_processes(processes)
            raise
        return dataset

    # -- lifecycle ------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._listener is None:
            raise ProtocolError("gateway is not listening (call start())")
        return self._listener.getsockname()[1]

    def start(self) -> "Gateway":
        """Bind the listener and start accepting sessions."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.bind_host, self.bind_port))
        listener.listen()
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="gateway-accept", daemon=True)
        self._accept_thread.start()
        return self

    def __enter__(self) -> "Gateway":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, drain_timeout: float | None = None) -> None:
        """Graceful teardown: refuse, drain, then close everything.

        Idempotent.  New sessions and new work are refused immediately
        (typed ``AdmissionError``); requests already admitted get up to
        ``drain_timeout`` seconds to finish; then every dataset closes —
        terminating any forked entity hosts — and session sockets shut.
        """
        with self._lock:
            if self._closed:
                return
            already_closing = self._closing
            self._closing = True
        if already_closing:
            return
        if self._listener is not None:
            # Closing an fd does not wake a thread blocked in accept() on
            # Linux; shutting the listener down does (accept() fails and
            # the accept loop returns), so the join below never waits.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        timeout = self.drain_timeout if drain_timeout is None else drain_timeout
        self.admission.drain(timeout)
        self.registry.close()
        with self._lock:
            sessions = list(self._sessions)
        for session in sessions:
            try:
                session.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                session.sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        for thread in list(self._session_threads):
            thread.join(timeout=5)
        with self._lock:
            self._closed = True

    # -- the serving loop -----------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, address = self._listener.accept()
            except OSError:
                return  # listener closed: shutdown
            with self._lock:
                if self._closing:
                    conn.close()
                    continue
                session = _Session(conn, address)
                self._sessions.add(session)
                self._sessions_total += 1
                thread = threading.Thread(
                    target=self._serve_session, args=(session,),
                    name=f"gateway-session-{session.id}", daemon=True)
                self._session_threads.append(thread)
            thread.start()

    def _serve_session(self, session: _Session) -> None:
        sock = session.sock
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                blob = recv_frame(sock)
                if blob is None:
                    return
                try:
                    frame = decode_frame(blob)
                except ProtocolError as exc:
                    # No decodable correlation id: 0 routes the error to
                    # the oldest pending request client-side.
                    self._send(session, ERROR, 0, _error_payload(exc))
                    continue
                self._handle(session, frame)
        except (ProtocolError, OSError):
            return  # peer vanished mid-frame; the session just ends
        finally:
            with self._lock:
                self._sessions.discard(session)
            try:
                sock.close()
            except OSError:
                pass

    def _handle(self, session: _Session, frame) -> None:
        cid = frame.correlation_id
        try:
            if frame.kind == PING:
                self._send(session, RESULT, cid, "pong")
                return
            if not is_gateway_kind(frame.kind):
                raise ProtocolError(
                    f"kind {frame.kind!r} is not a gateway session verb; "
                    f"entity RPCs are not served here")
            if frame.kind == proto.HELLO:
                self._send(session, RESULT, cid, self._hello(session,
                                                             frame.payload))
                return
            if session.tenant is None:
                raise AuthError(
                    "session is not authenticated: send gw:hello with a "
                    "tenant token first")
            self._count(session.tenant, "requests")
            if frame.kind == proto.HEALTHZ:
                self._send(session, RESULT, cid, self._healthz())
                return
            if frame.kind == proto.STATS:
                self._send(session, RESULT, cid, self._stats())
                return
            if self._closing:
                raise AdmissionError(
                    "gateway is shutting down; not accepting new work")
            if frame.kind == proto.DATASETS:
                self._send(session, RESULT, cid,
                           self.registry.visible_to(session.tenant))
                return
            if frame.kind == proto.REGISTER:
                self._send(session, RESULT, cid,
                           self._register(session.tenant, frame.payload))
                return
            if frame.kind == proto.EXPLAIN:
                self._send(session, RESULT, cid,
                           self._explain(session.tenant, frame.payload))
                return
            if frame.kind == proto.QUERY:
                self._query(session, cid, frame.payload)
                return
            raise ProtocolError(f"unknown gateway verb {frame.kind!r}")
        except Exception as exc:
            tenant = session.tenant or "?"
            if isinstance(exc, AuthError):
                self._count(tenant, "rejected_auth")
            elif isinstance(exc, AdmissionError):
                self._count(tenant, "rejected_admission")
            self._send(session, ERROR, cid, _error_payload(exc))

    # -- handlers -------------------------------------------------------------

    def _hello(self, session: _Session, payload) -> dict:
        if not isinstance(payload, dict):
            raise ProtocolError("gw:hello payload must be a dict")
        version = payload.get("protocol", proto.PROTOCOL_VERSION)
        if version != proto.PROTOCOL_VERSION:
            raise ProtocolError(
                f"gateway speaks session protocol "
                f"{proto.PROTOCOL_VERSION}, client sent {version}")
        if self._closing:
            raise AdmissionError(
                "gateway is shutting down; refusing new sessions")
        session.tenant = self.directory.authenticate(payload.get("token"))
        self._count(session.tenant, "hellos")
        return {"tenant": session.tenant,
                "protocol": proto.PROTOCOL_VERSION,
                "gateway": "repro-gateway"}

    def _register(self, tenant: str, payload) -> dict:
        if not isinstance(payload, dict) or "name" not in payload:
            raise ProtocolError("gw:register payload must name the dataset")
        self.admission.admit(tenant)
        try:
            dataset = self.register_dataset(
                tenant, str(payload["name"]),
                proto.relations_from_wire(payload.get("relations") or []),
                proto.domain_from_wire(payload.get("domain") or {}),
                payload.get("psi_attribute"),
                agg_attributes=tuple(payload.get("agg_attributes") or ()),
                with_verification=bool(payload.get("with_verification",
                                                   False)),
                shared=bool(payload.get("shared", False)),
                grants=tuple(payload.get("grants") or ()),
                seed=int(payload.get("seed", 0)))
        finally:
            self.admission.release()
        self._count(tenant, "registers")
        return {"dataset": dataset.name, "owner": dataset.owner,
                "owners": len(dataset.system.owners),
                "shared": dataset.shared}

    def _explain(self, tenant: str, payload) -> str:
        dataset, query = self._resolve_query(tenant, payload)
        self.admission.admit(tenant)
        try:
            text = dataset.client.explain(query)
        finally:
            self.admission.release()
        self._count(tenant, "explains")
        return text

    def _query(self, session: _Session, cid: int, payload) -> None:
        tenant = session.tenant
        dataset, query = self._resolve_query(tenant, payload)
        self.admission.admit(tenant)
        try:
            future = dataset.client.submit(query)
        except BaseException:
            self.admission.release()
            raise
        dataset.count_query(tenant)
        self._count(tenant, "queries")

        def _reply(fut) -> None:
            try:
                try:
                    wire = proto.result_to_wire(fut.result())
                except Exception as exc:
                    self._send(session, ERROR, cid, _error_payload(exc))
                else:
                    self._send(session, RESULT, cid, wire)
            finally:
                self.admission.release()

        future.add_done_callback(_reply)

    def _resolve_query(self, tenant: str, payload):
        """Authorize the dataset ref and re-hydrate the wire query."""
        if not isinstance(payload, dict) or "dataset" not in payload:
            raise ProtocolError("query payload must name a dataset")
        extra = set(payload) - {"dataset", "query"}
        if extra:
            # Execution options such as the sweeps' span count belong to
            # the dataset's deployment, never to one tenant's request.
            raise ProtocolError(
                f"query payload carries unsupported fields {sorted(extra)}")
        dataset = self.registry.resolve(tenant, payload["dataset"])
        return dataset, proto.query_from_wire(payload.get("query"))

    def _healthz(self) -> dict:
        pools = {}
        degraded = False
        for dataset in self.registry.all():
            health = dataset.system.pool_health()
            pools[dataset.ref] = health
            degraded = degraded or health["status"] != "ok"
        if self._closing:
            status = "draining"
        elif degraded:
            # Queries still succeed via failover, but the report must
            # not lie "ok" while a pool runs ejected members.
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "protocol": proto.PROTOCOL_VERSION,
            "uptime": time.monotonic() - self._started,
            "accepting": not self._closing,
            "inflight": self.admission.inflight,
            "datasets": len(self.registry.all()),
            "pools": pools,
        }

    def _stats(self) -> dict:
        with self._lock:
            active = len(self._sessions)
            total = self._sessions_total
            tenants = {tenant: dict(counters)
                       for tenant, counters in self._tenant_counters.items()}
        return {
            "gateway": {"sessions_active": active, "sessions_total": total,
                        "deployment": self.deployment,
                        "uptime": time.monotonic() - self._started},
            "admission": self.admission.stats,
            "tenants": tenants,
            "datasets": {dataset.ref: dataset.stats
                         for dataset in self.registry.all()},
        }

    # -- plumbing -------------------------------------------------------------

    def _count(self, tenant: str, key: str, n: int = 1) -> None:
        with self._lock:
            counters = self._tenant_counters.setdefault(tenant, {})
            counters[key] = counters.get(key, 0) + n

    @staticmethod
    def _send(session: _Session, kind: str, cid: int, payload) -> None:
        try:
            blob = encode_frame(kind, cid, FULL_SPAN, payload)
        except ProtocolError as exc:
            blob = encode_frame(ERROR, cid, FULL_SPAN, _error_payload(exc))
        try:
            with session.send_lock:
                send_frame(session.sock, blob)
        except OSError:
            pass  # session died; its reader thread is winding down


def _error_payload(exc: Exception) -> dict:
    payload = {"type": type(exc).__name__, "message": str(exc)}
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        payload["retry_after"] = float(retry_after)
    address = getattr(exc, "address", None)
    if address is not None:
        payload["address"] = str(address)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serve Prism deployments to many tenants over TCP.")
    parser.add_argument("--port", type=int, default=9061,
                        help="TCP port (0 = ephemeral; announced on stdout)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback)")
    parser.add_argument("--deployment", default="local",
                        help="dataset deployment: local, subprocess, "
                             "forked-tcp, forked-tcp:N (N supervised "
                             "replicas per role), or a tcp:// spec")
    parser.add_argument("--tenant", action="append", default=[],
                        metavar="TOKEN=NAME",
                        help="tenant token mapping (repeatable); default "
                             "demo-token=demo")
    parser.add_argument("--rate-limit", type=float, default=None,
                        help="per-tenant requests/second (default: none)")
    parser.add_argument("--burst", type=float, default=None,
                        help="per-tenant bucket capacity (default: the rate)")
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="gateway-wide concurrent query bound")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        help="seconds to drain in-flight work on shutdown")
    args = parser.parse_args(argv)

    tenants = {}
    for item in args.tenant or ["demo-token=demo"]:
        token, sep, name = item.partition("=")
        if not sep or not token or not name:
            parser.error(f"--tenant wants TOKEN=NAME, got {item!r}")
        tenants[token] = name

    gateway = Gateway(tenants, deployment=args.deployment, host=args.host,
                      port=args.port, max_inflight=args.max_inflight,
                      rate_limit=args.rate_limit, burst=args.burst,
                      drain_timeout=args.drain_timeout)
    stop = threading.Event()

    def _on_signal(signum, _frame) -> None:
        print(f"GATEWAY DRAINING (signal {signum})", flush=True)
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    gateway.start()
    print(f"GATEWAY LISTENING {gateway.port}", flush=True)
    try:
        stop.wait()
    finally:
        gateway.shutdown()
        print("GATEWAY STOPPED", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
