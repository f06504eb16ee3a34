"""The standalone entity host: one Prism entity behind the wire codec.

``repro-entity-host`` (also ``python -m repro.network.host``) runs an
entity — today: a :class:`~repro.entities.server.PrismServer` or any
registered subclass, including the malicious ones — in its own OS
process, speaking the framed RPC protocol of :mod:`repro.network.rpc`
over TCP.  A :class:`~repro.core.system.PrismSystem` built with
``deployment="tcp://..."`` bootstraps each host with a
``__construct__`` request carrying the server index, the wire-encoded
§4 parameter view, and (optionally) the dotted path of a server
subclass to instantiate — which is how malicious-server fault injection
works across a real socket.

The same dispatch adapter backs all three channels: the
``SubprocessChannel`` serves it from a forked child over a pipe, and
the ``InProcessChannel`` calls it directly, so behaviour is identical
from zero-copy to real sockets.

Two kernel verbs reach a hosted server:
:meth:`~repro.entities.server.PrismServer.indicator_round` (a batch's
whole round 1, or one bucketized level's cells sweep, one frame per
round) and
:meth:`~repro.entities.server.PrismServer.aggregate_round_batch` (the
Eq. 11 round).  A kernel request carries a ``num_shards`` keyword, which
the kernel honours on the host's own thread pool.  Every request covers
whole sweeps: the frame envelope still has a span field, and the
adapter refuses any frame whose span is not
:data:`~repro.network.codec.FULL_SPAN` before it runs anything.
"""

from __future__ import annotations

import argparse
import importlib
import multiprocessing
import signal
import socket
import sys
import threading

import numpy as np

from repro.crypto.widths import check_stream
from repro.data.storage import ShareKind
from repro.entities.server import PrismServer
from repro.exceptions import ProtocolError
from repro.network.codec import FULL_SPAN, decode_frame, encode_frame
from repro.network.rpc import (
    CONSTRUCT,
    ERROR,
    PING,
    RESULT,
    SHUTDOWN,
    RpcMessage,
    recv_frame,
    send_frame,
    server_params_from_wire,
)

#: PrismServer methods callable over a channel.  An explicit allowlist:
#: a frame from the network must never reach private helpers or the
#: store directly.
SERVER_METHODS = frozenset({
    "receive_shares",
    "owners_with",
    "fetch_additive",
    "fetch_shamir",
    "indicator_round",
    "aggregate_round_batch",
    "extrema_collect",
    "fpos_round",
    "forward",
    "close",
})


def check_whole_sweep(message: RpcMessage) -> None:
    """Refuse a frame whose envelope names a span other than
    :data:`~repro.network.codec.FULL_SPAN`.

    The span is input from outside: a reply labeled with a span it does
    not cover would mislead whoever reads it, so nothing runs.
    """
    if message.span != FULL_SPAN:
        raise ProtocolError(
            f"span {tuple(message.span)} refused: every request covers "
            f"the whole sweep")


class ServerAdapter:
    """Dispatches channel messages onto one hosted server entity."""

    def __init__(self, server: PrismServer):
        self.server = server

    def dispatch(self, message: RpcMessage) -> RpcMessage:
        """Execute one request; errors become ``__error__`` replies."""
        try:
            payload = self._dispatch(message)
        except Exception as exc:  # every failure must travel back
            return _error_reply(exc, message.correlation_id)
        return RpcMessage(RESULT, payload, message.correlation_id)

    def _dispatch(self, message: RpcMessage):
        check_whole_sweep(message)
        kind = message.kind
        if kind == PING:
            return {"entity": "server", "index": self.server.index,
                    "columns": len(self.server.store)}
        body = message.payload if isinstance(message.payload, dict) else {}
        args = list(body.get("a", ()))
        kwargs = dict(body.get("k", {}))
        if kind not in SERVER_METHODS:
            raise ProtocolError(f"unknown server RPC {kind!r}")
        params = self.server.params
        if kind == "receive_shares" and len(args) == 4:
            # The wire carries the ShareKind as its string value, and the
            # vector at exactly the width of its modulus.
            args[3] = ShareKind(args[3])
            check_stream(args[2], params.modulus_of(args[3]),
                         f"owner {args[0]}'s {args[3].value} column "
                         f"{args[1]!r}")
        if (kind == "aggregate_round_batch" and len(args) > 1
                and isinstance(args[1], np.ndarray)):
            # The querier's indicator share matrix, at the field
            # prime's width.
            check_stream(args[1], params.field_prime,
                         "indicator share matrix")
        return getattr(self.server, kind)(*args, **kwargs)


def _error_reply(exc: Exception, correlation_id: int = 0) -> RpcMessage:
    return RpcMessage(ERROR, {"type": type(exc).__name__,
                              "message": str(exc)}, correlation_id)


def adapter_for(entity) -> ServerAdapter:
    """The dispatch adapter for a hosted entity (servers, today)."""
    if isinstance(entity, ServerAdapter):
        return entity
    if isinstance(entity, PrismServer):
        return ServerAdapter(entity)
    raise ProtocolError(
        f"no host adapter for entity type {type(entity).__name__}"
    )


def _resolve_server_class(path) -> type:
    """Import a server class by dotted path, restricted to this package.

    The host only instantiates :class:`PrismServer` subclasses from the
    ``repro.`` namespace — enough for the adversary classes used by
    fault-injection tests, without turning the bootstrap into an
    arbitrary-import primitive.
    """
    if path is None:
        return PrismServer
    path = str(path)
    if not path.startswith("repro."):
        raise ProtocolError(
            f"server class {path!r} is outside the repro package")
    module_name, _, class_name = path.rpartition(".")
    try:
        cls = getattr(importlib.import_module(module_name), class_name)
    except (ImportError, AttributeError) as exc:
        raise ProtocolError(f"cannot import server class {path!r}: {exc}"
                            ) from exc
    if not (isinstance(cls, type) and issubclass(cls, PrismServer)):
        raise ProtocolError(f"{path!r} is not a PrismServer subclass")
    return cls


def build_adapter(payload) -> ServerAdapter:
    """Construct the hosted entity from a ``__construct__`` payload."""
    if not isinstance(payload, dict):
        raise ProtocolError("construct payload must be a dict")
    entity = payload.get("entity", "server")
    if entity != "server":
        raise ProtocolError(f"cannot host entity kind {entity!r}")
    cls = _resolve_server_class(payload.get("server_class"))
    kwargs = payload.get("kwargs") or {}
    params = server_params_from_wire(payload["params"])
    return ServerAdapter(cls(int(payload["index"]), params, **kwargs))


class EntityHost:
    """Serves framed requests from a stream onto one entity adapter.

    ``recv_arena``/``send_arena`` attach the shared-memory fast path of
    a same-host (``"shm"``) deployment: requests decode array payloads
    out of ``recv_arena`` and replies encode theirs into ``send_arena``
    (reset per reply — the serial protocol guarantees the previous
    reply was consumed).  Both default to ``None`` for TCP hosts, where
    frames stay fully inline.
    """

    def __init__(self, adapter: ServerAdapter | None = None,
                 recv_arena=None, send_arena=None):
        self.adapter = adapter
        self.recv_arena = recv_arena
        self.send_arena = send_arena

    def serve_stream(self, sock: socket.socket) -> bool:
        """Serve one connection until EOF or shutdown.

        Returns ``True`` when the peer simply disconnected (the host
        should keep accepting) and ``False`` after a ``__shutdown__``
        request (the host process should exit).
        """
        while True:
            blob = recv_frame(sock)
            if blob is None:
                return True
            try:
                frame = decode_frame(blob, arena=self.recv_arena)
            except ProtocolError as exc:
                self._reply(sock, _error_reply(exc))
                continue
            message = RpcMessage(frame.kind, frame.payload,
                                 frame.correlation_id, frame.span)
            try:
                check_whole_sweep(message)
            except ProtocolError as exc:
                self._reply(sock, _error_reply(exc, message.correlation_id))
                continue
            if message.kind == SHUTDOWN:
                self._reply(sock, RpcMessage(RESULT, None,
                                             message.correlation_id))
                return False
            if message.kind == CONSTRUCT:
                try:
                    self.adapter = build_adapter(message.payload)
                    reply = RpcMessage(RESULT,
                                       {"entity": "server",
                                        "index": self.adapter.server.index},
                                       message.correlation_id)
                except Exception as exc:
                    reply = _error_reply(exc, message.correlation_id)
                self._reply(sock, reply)
                continue
            if self.adapter is None:
                self._reply(sock, RpcMessage(
                    ERROR,
                    {"type": "ProtocolError",
                     "message": "no entity constructed on this host yet"},
                    message.correlation_id))
                continue
            self._reply(sock, self.adapter.dispatch(message))

    def _reply(self, sock: socket.socket, reply: RpcMessage) -> None:
        arena = self.send_arena
        if arena is not None:
            arena.reset()
        send_frame(sock, encode_frame(reply.kind, reply.correlation_id,
                                      reply.span, reply.payload,
                                      arena=arena))


def child_serve(sock: socket.socket, entity_factory,
                recv_arena=None, send_arena=None) -> None:
    """Entry point of a :class:`SubprocessChannel` child (post-fork).

    The arenas (mapped by the parent *before* the fork, so the pages
    are shared) carry the ``"shm"`` deployment's array payloads:
    ``recv_arena`` is where the parent encodes request vectors,
    ``send_arena`` where this child encodes reply vectors.
    """
    adapter = None
    if entity_factory is not None:
        adapter = adapter_for(entity_factory())
    try:
        EntityHost(adapter, recv_arena=recv_arena,
                   send_arena=send_arena).serve_stream(sock)
    finally:
        try:
            sock.close()
        except OSError:
            pass


class GracefulShutdown:
    """Signal-driven drain for a serving loop: finish, reply, exit.

    SIGTERM/SIGINT must not abort an in-flight request mid-compute or
    orphan a reply.  The handler never raises into the serving code;
    it sets a flag and *shuts the read side* of every tracked socket —
    a blocked ``accept``/``recv`` wakes with EOF, the request already
    being served finishes and its reply still sends (the write side
    stays open), and the loop then sees :attr:`requested` and returns.
    """

    def __init__(self):
        self.requested = threading.Event()
        # Reentrant: the signal handler runs on the main thread, possibly
        # while that same thread is inside track()/untrack() holding the
        # lock; a plain Lock would park the host on itself forever.
        self._lock = threading.RLock()
        self._sockets: list[tuple[socket.socket, bool]] = []

    def install(self) -> "GracefulShutdown":
        """Hook SIGTERM/SIGINT (no-op off the main thread)."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, self._handle)
            except ValueError:
                break  # not the main thread: caller keeps its handlers
        return self

    def track(self, sock: socket.socket, listener: bool = False) -> None:
        with self._lock:
            self._sockets.append((sock, listener))

    def untrack(self, sock: socket.socket) -> None:
        with self._lock:
            self._sockets = [(s, l) for s, l in self._sockets if s is not sock]

    def _handle(self, signum, _frame) -> None:
        self.requested.set()
        with self._lock:
            sockets = list(self._sockets)
        for sock, listener in sockets:
            try:
                if listener:
                    # SHUT_RD is ENOTCONN on a listening socket; close it
                    # so the EINTR-retried accept raises instead of
                    # re-blocking (PEP 475).
                    sock.close()
                else:
                    sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass


def serve_listener(listener: socket.socket,
                   graceful: GracefulShutdown | None = None) -> None:
    """Accept connections until a client or a signal requests shutdown.

    A misbehaving or killed *client* (mid-frame EOF, broken pipe) must
    not take the host down — the host keeps serving the next
    connection; only an explicit ``__shutdown__`` (or SIGTERM/SIGINT
    via ``graceful``, which drains the in-flight request first) ends
    the process.
    """
    host = EntityHost()
    if graceful is not None:
        graceful.track(listener, listener=True)
    while True:
        if graceful is not None and graceful.requested.is_set():
            return
        try:
            conn, _ = listener.accept()
        except OSError:
            if graceful is not None and graceful.requested.is_set():
                return
            raise
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if graceful is not None:
                graceful.track(conn)
            try:
                if not host.serve_stream(conn):
                    return
            except (ProtocolError, OSError) as exc:
                print(f"entity host: dropping connection: {exc}",
                      file=sys.stderr, flush=True)
            finally:
                if graceful is not None:
                    graceful.untrack(conn)


def serve_tcp(port: int, host: str = "127.0.0.1", announce=print,
              graceful: bool = True) -> None:
    """Bind, announce ``LISTENING <port>``, and serve until shutdown.

    ``port=0`` picks an ephemeral port — the announcement line is how
    launchers (the CI smoke, ``examples/distributed_serving.py``)
    discover it.  With ``graceful`` (and on the main thread) SIGTERM /
    SIGINT drain the in-flight request and exit cleanly instead of
    killing the process mid-reply.
    """
    shutdown = GracefulShutdown().install() if graceful else None
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
        if announce is not None:
            announce(f"LISTENING {listener.getsockname()[1]}", flush=True)
        serve_listener(listener, shutdown)


def processes_available() -> bool:
    """Whether this platform can fork entity hosts
    (:func:`launch_forked_pools` needs the ``fork`` start method)."""
    return "fork" in multiprocessing.get_all_start_methods()


def launch_forked_hosts(count: int = 3, host: str = "127.0.0.1"):
    """Fork ``count`` entity-host processes on ephemeral ports.

    Each child binds port 0 itself and reports the kernel-assigned port
    back through the bootstrap handshake (a pipe), so no port is ever
    picked before its bind — nothing to race, nothing to leak between
    siblings.  Returns ``(deployment_spec, processes)`` where the spec
    is a ready-to-use ``"tcp://host:port,..."`` string; terminate the
    processes when done.
    """
    pools, processes = launch_forked_pools([1] * count, host)
    spec = "tcp://" + ",".join(
        f"{h}:{p}" for pool in pools for h, p in pool)
    return spec, processes


def launch_forked_pools(pool_sizes, host: str = "127.0.0.1"):
    """Fork one entity-host process per member of each role's pool.

    ``pool_sizes`` gives the pool size per server role, e.g.
    ``[2, 2, 2]`` for two hosts behind each of the three roles.
    Returns ``(pools, processes)`` where ``pools`` is one
    ``[(host, port), ...]`` list per role (ports reported back by the
    children through the bootstrap handshake); format a deployment
    string with :func:`pools_spec`.
    """
    context = multiprocessing.get_context("fork")
    processes: list = []
    pools: list[list[tuple[str, int]]] = []
    try:
        for size in pool_sizes:
            members = []
            for _ in range(int(size)):
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(
                    target=_serve_announced, args=(host, sender),
                    name="repro-entity-host", daemon=True)
                process.start()
                processes.append(process)
                sender.close()  # the child holds the write end now
                try:
                    port = int(receiver.recv())
                finally:
                    receiver.close()
                members.append((host, port))
            pools.append(members)
    except (EOFError, OSError) as exc:
        for process in processes:
            process.terminate()
        raise ProtocolError(
            f"entity host died before announcing its port: {exc}") from exc
    return pools, processes


def launch_forked_member(host: str = "127.0.0.1"):
    """Fork one replacement entity host; ``((host, port), process)``.

    The supervisor's respawn primitive: one fresh process on an
    ephemeral port, ready for a channel ``rejoin`` to replay the
    journal into it.
    """
    pools, processes = launch_forked_pools([1], host)
    return pools[0][0], processes[0]


def pools_spec(pools) -> str:
    """The ``tcp://`` deployment string for :func:`launch_forked_pools`."""
    return "tcp://" + "/".join(
        ",".join(f"{h}:{p}" for h, p in pool) for pool in pools)


def _serve_announced(host: str, sender) -> None:
    """Child entry: bind port 0, report the assigned port, then serve.

    The child installs its own drain handlers, so a launcher's
    ``terminate()`` (SIGTERM) lets an in-flight request finish and
    reply before the process exits — never a mid-frame corpse.
    """
    shutdown = GracefulShutdown().install()
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, 0))
        listener.listen()
        sender.send(listener.getsockname()[1])
        sender.close()
        serve_listener(listener, shutdown)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host one Prism entity behind the wire codec over TCP.")
    parser.add_argument("--port", type=int, default=9041,
                        help="TCP port (0 = ephemeral; announced on stdout)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback)")
    args = parser.parse_args(argv)
    serve_tcp(args.port, args.host)
    return 0


if __name__ == "__main__":
    sys.exit(main())
