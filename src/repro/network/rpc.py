"""Pluggable deployment channels: one RPC surface from in-process to TCP.

The orchestration layer used to reach entities through direct Python
method calls; that implicit calling convention is made explicit here as
a request/response surface small enough to fit in one sentence: a
:class:`Channel` moves one :class:`RpcMessage` to an entity and returns
the entity's reply.  Three implementations cover the deployment ladder:

* :class:`InProcessChannel` — today's behaviour: the entity lives in
  this process and the message is dispatched zero-copy (optionally
  round-tripped through the codec for conformance testing).
* :class:`SubprocessChannel` — the entity is hosted in a forked worker
  process; frames travel over a socketpair.
* :class:`~repro.network.dispatch.PooledChannel` — the entity is
  hosted by a pool of one or more standalone ``repro-entity-host``
  processes (:mod:`repro.network.host`) and frames travel
  length-prefixed over TCP, multiplexed on connections the calling
  threads drive (:mod:`repro.network.dispatch`).

Every message is wrapped in the codec's framed envelope
(:func:`repro.network.codec.encode_frame`): kind, correlation id, shard
span, payload.  Correlation ids pair responses to requests (the
coalescing scheduler and direct callers multiplex one connection).
Every request covers whole sweeps, so its span is always
:data:`~repro.network.codec.FULL_SPAN`; an entity host refuses any
other.

The :class:`Deployment` spec is the single declaration of topology —
``"local"``, ``"subprocess"``, or ``"tcp://..."`` with one address
list per server role (``,`` separates a role's pool members, ``/``
separates roles) — parsed once by
:class:`~repro.core.system.PrismSystem` and plumbed through the
client/executor layers.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import socket
import struct
import threading

from repro import exceptions as _exceptions
from repro.core.params import ServerGroupView, ServerParams
from repro.crypto.permutation import Permutation
from repro.exceptions import ParameterError, ProtocolError
from repro.network.codec import FULL_SPAN, decode_frame, encode_frame

#: Reserved message kinds; every other kind names an entity method.
CONSTRUCT = "__construct__"
PING = "__ping__"
SHUTDOWN = "__shutdown__"
RESULT = "__result__"
ERROR = "__error__"

_LENGTH = struct.Struct("<Q")

#: Hard cap on a single frame (16 GiB): a corrupted length prefix must
#: raise a ProtocolError, not drive the receiver into a huge allocation.
MAX_FRAME_BYTES = 1 << 34

#: First receive chunk of a frame; later chunks double with the bytes
#: that have arrived (:func:`_recv_exact`).
_FIRST_CHUNK = 1 << 20


@dataclasses.dataclass(frozen=True)
class RpcMessage:
    """One request or response on a channel.

    Attributes:
        kind: entity method name, or a reserved control kind.
        payload: codec-encodable body.  Method calls carry
            ``{"a": [args...], "k": {kwargs...}}``.
        correlation_id: assigned by the channel on send; responses echo
            it (a mismatch is a protocol violation).
        span: contiguous χ shard span the message covers
            (:data:`~repro.network.codec.FULL_SPAN` = whole sweep).
    """

    kind: str
    payload: object = None
    correlation_id: int = 0
    span: tuple[int, int] = FULL_SPAN


# -- stream framing -----------------------------------------------------------


def send_frame(sock: socket.socket, blob: bytes) -> int:
    """Write one length-prefixed frame; returns bytes on the wire."""
    data = _LENGTH.pack(len(blob)) + blob
    sock.sendall(data)
    return len(data)


def recv_frame(sock: socket.socket) -> bytes | None:
    """Read one length-prefixed frame; ``None`` on a clean EOF.

    Raises:
        ProtocolError: on a mid-frame EOF or an absurd length prefix.
    """
    header = _recv_exact(sock, _LENGTH.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the wire cap")
    return _recv_exact(sock, length, allow_eof=False)


def _recv_exact(sock: socket.socket, n: int, allow_eof: bool) -> bytes | None:
    # Memory follows the bytes that arrive, not the length a peer
    # claims: chunks start at 1 MiB and double with what was received,
    # so a bare header claiming gigabytes allocates one chunk.  Each
    # chunk is filled in place; the one join at the end buys the
    # immutability the zero-copy decoders key on.
    chunks = []
    received = 0
    while received < n:
        chunk = bytearray(min(n - received, max(received, _FIRST_CHUNK)))
        view = memoryview(chunk)
        filled = 0
        while filled < len(chunk):
            got = sock.recv_into(view[filled:])
            if not got:
                if allow_eof and received + filled == 0:
                    return None
                raise ProtocolError("connection closed mid-frame")
            filled += got
        chunks.append(chunk)
        received += filled
    return b"".join(chunks)


# -- the deployment spec ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Deployment:
    """Where a system's server entities live, declared once.

    Attributes:
        mode: ``"local"`` (in-process, zero-copy), ``"subprocess"``
            (forked entity hosts, frames over pipes), ``"shm"``
            (forked hosts whose share vectors travel through pre-fork
            shared-memory arenas instead of the socket — see
            :mod:`repro.network.shm`), or ``"tcp"`` (standalone
            ``repro-entity-host`` processes).
        pools: for ``tcp``, one host *pool* per server role — a tuple
            of ``(host, port)`` replicas all holding the same role's
            state.  A pool of one is the classic single-host role.
    """

    mode: str
    pools: tuple[tuple[tuple[str, int], ...], ...] = ()

    @property
    def is_local(self) -> bool:
        return self.mode == "local"

    @classmethod
    def parse(cls, spec, num_servers: int = 3) -> "Deployment":
        """Parse a deployment declaration.

        Accepts a :class:`Deployment` (returned as-is), ``"local"``,
        ``"subprocess"``, ``"shm"``, or a ``tcp://`` spec with one
        address list per server role.  Two tcp shapes:

        * ``"tcp://h1:p1,h2:p2,h3:p3"`` — the historical form: exactly
          ``num_servers`` comma-separated addresses, one host per role.
        * ``"tcp://h1:p1,h1:p2/h2:p3/h3:p4"`` — host pools: ``/``
          separates the roles, ``,`` the pool members within a role.
        """
        if isinstance(spec, cls):
            if spec.mode == "tcp" and len(spec.pools) != num_servers:
                raise ParameterError(
                    f"tcp deployment needs {num_servers} address pools, got "
                    f"{len(spec.pools)}"
                )
            return spec
        if not isinstance(spec, str):
            raise ParameterError(
                f"deployment must be a string or Deployment, not "
                f"{type(spec).__name__}"
            )
        if spec in ("local", "subprocess", "shm"):
            return cls(mode=spec)
        if spec.startswith("tcp://"):
            body = spec[len("tcp://"):]
            # Without a "/" the commas separate the roles (the
            # historical one-host-per-role form); with one, they
            # separate a role's pool members.
            role_specs = body.split("/") if "/" in body else body.split(",")
            pools = []
            for role_spec in role_specs:
                members = []
                for part in role_spec.split(","):
                    host, sep, port = part.strip().rpartition(":")
                    if not sep or not host or not port.isdigit():
                        raise ParameterError(
                            f"bad tcp address {part.strip()!r}; expected "
                            f"host:port"
                        )
                    members.append((host, int(port)))
                pools.append(tuple(members))
            if len(pools) != num_servers:
                raise ParameterError(
                    f"tcp deployment needs {num_servers} address pools "
                    f"(one per server), got {len(pools)}"
                )
            return cls(mode="tcp", pools=tuple(pools))
        raise ParameterError(
            f"unknown deployment {spec!r}; expected 'local', 'subprocess', "
            f"'shm', or 'tcp://host:port,...'"
        )


# -- channels -----------------------------------------------------------------


def _remote_exception(payload) -> Exception:
    """Rebuild a remote error as the matching local exception type."""
    if not isinstance(payload, dict):
        return ProtocolError(f"malformed remote error: {payload!r}")
    name = str(payload.get("type", "Exception"))
    message = str(payload.get("message", ""))
    cls = getattr(_exceptions, name, None)
    if isinstance(cls, type) and issubclass(cls, _exceptions.PrismError):
        exc = cls(message)
        retry_after = payload.get("retry_after")
        if retry_after is not None and hasattr(exc, "retry_after"):
            exc.retry_after = float(retry_after)
        address = payload.get("address")
        if address is not None and hasattr(exc, "address"):
            exc.address = str(address)
        return exc
    return ProtocolError(f"remote {name}: {message}")


class Channel:
    """Abstract request/response channel to one hosted entity."""

    def send(self, message: RpcMessage) -> RpcMessage:
        """Deliver one message; returns the entity's reply.

        Raises the reconstructed remote exception when the reply is an
        error frame.
        """
        raise NotImplementedError

    def call(self, method: str, *args, **kwargs):
        """Convenience: invoke an entity method and return its result."""
        reply = self.send(RpcMessage(kind=method,
                                     payload={"a": list(args), "k": kwargs}))
        return reply.payload

    def issue(self, message: RpcMessage):
        """Send one request now; returns the call that collects its
        reply.

        The base channel serves it here.  Socket channels leave the
        reply on the wire until the collect call, so a caller can issue
        to every server role before it waits on any; a pooled channel
        (:mod:`repro.network.dispatch`) sends it to its least-loaded
        host.
        """
        reply = self.send(message)
        return lambda: reply

    def close(self) -> None:
        """Release the channel (idempotent)."""

    @property
    def stats(self) -> dict:
        """Counters: requests served, bytes sent/received on the wire."""
        return {"requests": 0, "bytes_sent": 0, "bytes_received": 0}


class InProcessChannel(Channel):
    """Zero-copy channel to an entity living in this process.

    Args:
        entity: the hosted entity (e.g. a
            :class:`~repro.entities.server.PrismServer`).
        serialize: round-trip every message through the framed codec —
            conformance mode: byte-exact wire behaviour without a
            process boundary.
    """

    def __init__(self, entity, serialize: bool = False):
        from repro.network.host import adapter_for
        self._adapter = adapter_for(entity)
        self.serialize = serialize
        self._requests = 0
        self._bytes_sent = 0
        self._bytes_received = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def send(self, message: RpcMessage) -> RpcMessage:
        with self._lock:
            correlation_id = next(self._ids)
            self._requests += 1
        message = dataclasses.replace(message, correlation_id=correlation_id)
        if self.serialize:
            blob = encode_frame(message.kind, message.correlation_id,
                                message.span, message.payload)
            self._bytes_sent += len(blob)
            frame = decode_frame(blob)
            message = RpcMessage(frame.kind, frame.payload,
                                 frame.correlation_id, frame.span)
        reply = self._adapter.dispatch(message)
        if self.serialize:
            blob = encode_frame(reply.kind, reply.correlation_id, reply.span,
                                reply.payload)
            self._bytes_received += len(blob)
            frame = decode_frame(blob)
            reply = RpcMessage(frame.kind, frame.payload,
                               frame.correlation_id, frame.span)
        if reply.kind == ERROR:
            raise _remote_exception(reply.payload)
        if reply.correlation_id != correlation_id:
            raise ProtocolError(
                f"correlation mismatch: sent {correlation_id}, got "
                f"{reply.correlation_id}"
            )
        return reply

    @property
    def stats(self) -> dict:
        return {"requests": self._requests, "bytes_sent": self._bytes_sent,
                "bytes_received": self._bytes_received}


class _StreamChannel(Channel):
    """Shared machinery for channels framing messages over a socket.

    The host serves one frame at a time, and at most one request is on
    the wire: :meth:`issue` reads the reply of the previous request
    before it writes the next frame, and leaves the last frame's reply
    on the wire for the collect call (or the next request) to read.  So
    the host computes while the caller issues to other roles, and the
    shared-memory arenas keep their reset rule (a reply proves its
    request was decoded).
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._requests = 0
        self._bytes_sent = 0
        self._bytes_received = 0
        self._closed = False
        #: The request whose reply is still on the wire, if any.
        self._unread: _StreamReply | None = None
        # Shared-memory arenas of a same-host channel (request payloads
        # outbound, reply payloads inbound); ``None`` keeps the classic
        # all-inline wire shape.  See repro.network.shm.
        self._tx_arena = None
        self._rx_arena = None

    def send(self, message: RpcMessage) -> RpcMessage:
        return self.issue(message)()

    def issue(self, message: RpcMessage):
        # The lock serialises concurrent callers (scheduler thread +
        # direct queries); correlation ids verify the pairing on top.
        with self._lock:
            if self._closed:
                raise ProtocolError("channel is closed")
            self._read_locked()
            reply = self._write_locked(message)

        def collect() -> RpcMessage:
            with self._lock:
                if reply is self._unread:
                    self._read_locked()
            return reply.result()
        return collect

    def _write_locked(self, message: RpcMessage) -> "_StreamReply":
        """Write one request frame (lock held, nothing on the wire)."""
        correlation_id = next(self._ids)
        if self._tx_arena is not None:
            # The previous reply proved the previous request frame was
            # fully decoded, so its arena allocations are reclaimable.
            self._tx_arena.reset()
        blob = encode_frame(message.kind, correlation_id, message.span,
                            message.payload, arena=self._tx_arena)
        self._bytes_sent += send_frame(self._sock, blob)
        self._unread = _StreamReply(correlation_id, message.kind)
        return self._unread

    def _read_locked(self) -> None:
        """Read the reply still on the wire, if any (lock held)."""
        reply, self._unread = self._unread, None
        if reply is None:
            return
        try:
            blob = recv_frame(self._sock)
            if blob is None:
                raise ProtocolError(f"entity host closed the connection "
                                    f"during {reply.kind!r}")
            self._bytes_received += len(blob) + _LENGTH.size
            self._requests += 1
            if self._rx_arena is not None:
                # Copy-out must finish before the next request is
                # written: that request is what triggers the host's
                # reply-arena reset, and the lock orders it after this
                # decode.
                reply.frame = decode_frame(blob, arena=self._rx_arena)
            else:
                reply.frame = decode_frame(blob)
        except (OSError, ProtocolError) as exc:
            reply.error = exc

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    @property
    def stats(self) -> dict:
        return {"requests": self._requests, "bytes_sent": self._bytes_sent,
                "bytes_received": self._bytes_received}


class _StreamReply:
    """One stream request's reply, once read off the wire."""

    __slots__ = ("correlation_id", "kind", "frame", "error")

    def __init__(self, correlation_id: int, kind: str):
        self.correlation_id = correlation_id
        self.kind = kind
        self.frame = self.error = None

    def result(self) -> RpcMessage:
        if self.error is not None:
            raise self.error
        frame = self.frame
        # Error replies surface first: a host that could not decode the
        # request replies with correlation id 0 (it never learned ours),
        # and the real diagnostic beats a correlation-mismatch report.
        if frame.kind == ERROR:
            raise _remote_exception(frame.payload)
        if frame.correlation_id != self.correlation_id:
            raise ProtocolError(
                f"correlation mismatch: sent {self.correlation_id}, got "
                f"{frame.correlation_id}"
            )
        if frame.kind != RESULT:
            raise ProtocolError(f"unexpected reply kind {frame.kind!r}")
        return RpcMessage(frame.kind, frame.payload, frame.correlation_id,
                          frame.span)


class SubprocessChannel(_StreamChannel):
    """Channel to an entity hosted in a forked worker process.

    Use :meth:`spawn`: the factory runs *in the child after the fork*
    (inherited by reference — nothing is pickled), so heavyweight
    parameters travel copy-on-write and arbitrary factory callables
    (including malicious-server lambdas) work unchanged.
    """

    def __init__(self, sock: socket.socket, process):
        super().__init__(sock)
        self.process = process

    @classmethod
    def spawn(cls, entity_factory,
              shm_bytes: int | None = None) -> "SubprocessChannel":
        """Fork a child hosting ``entity_factory()``; frames over a pipe.

        With ``shm_bytes``, a pair of shared-memory arenas (request and
        reply payloads) is mapped *before* the fork so both processes
        share the pages: large share vectors stop riding the socket and
        travel as 24-byte arena references instead (the ``"shm"``
        deployment mode).  ``None`` keeps the classic all-inline frames.

        Raises:
            ParameterError: on platforms without ``fork`` (use
                ``deployment="local"`` or real TCP hosts there).
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ParameterError(
                "subprocess deployment needs fork-based worker processes; "
                "use deployment='local' or 'tcp://...' on this platform"
            )
        from repro.network.host import child_serve
        tx_arena = rx_arena = None
        if shm_bytes is not None:
            from repro.network.shm import ShmArena
            tx_arena = ShmArena(shm_bytes)
            rx_arena = ShmArena(shm_bytes)
        parent_sock, child_sock = socket.socketpair()
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=child_serve,
            args=(child_sock, entity_factory, tx_arena, rx_arena),
            name="repro-entity-host", daemon=True)
        process.start()
        child_sock.close()
        channel = cls(parent_sock, process)
        channel._tx_arena = tx_arena
        channel._rx_arena = rx_arena
        return channel

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.send(RpcMessage(SHUTDOWN))
        except (ProtocolError, OSError):
            pass  # the child may already be gone
        super().close()
        if self.process is not None:
            self.process.join(timeout=10)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=10)
        for arena in (self._tx_arena, self._rx_arena):
            if arena is not None:
                arena.close()


# -- parameter views over the wire -------------------------------------------


def server_params_to_wire(params: ServerParams) -> dict:
    """Codec-encodable form of a server's knowledge view (§4).

    Ships exactly what the initiator deals to a server — permutation
    mappings, the group view with its power table, the common PRG seed
    — so a remote entity host can reconstruct an identical
    :class:`~repro.core.params.ServerParams` without ever seeing the
    initiator (or anything the §4 view withholds, such as ``eta``).
    """
    return {
        "num_owners": params.num_owners,
        "delta": params.delta,
        "field_prime": params.field_prime,
        "group": {
            "delta": params.group.delta,
            "eta_prime": params.group.eta_prime,
            "g": params.group.g,
            "power_table": params.group.power_table,
        },
        "pf": params.pf.mapping,
        "pf_owners": params.pf_owners.mapping,
        "pf_s1": params.pf_s1.mapping,
        "pf_s2": params.pf_s2.mapping,
        "prg_seed": params.prg_seed,
        "extrema_modulus": params.extrema_modulus,
        "m_share": params.m_share,
    }


def server_params_from_wire(data: dict) -> ServerParams:
    """Inverse of :func:`server_params_to_wire`.

    Raises:
        ProtocolError: when required fields are missing or malformed.
    """
    try:
        group = data["group"]
        return ServerParams(
            num_owners=int(data["num_owners"]),
            delta=int(data["delta"]),
            group=ServerGroupView(
                delta=int(group["delta"]),
                eta_prime=int(group["eta_prime"]),
                g=int(group["g"]),
                power_table=group["power_table"],
            ),
            field_prime=int(data["field_prime"]),
            pf=Permutation(data["pf"]),
            pf_owners=Permutation(data["pf_owners"]),
            pf_s1=Permutation(data["pf_s1"]),
            pf_s2=Permutation(data["pf_s2"]),
            prg_seed=int(data["prg_seed"]),
            extrema_modulus=int(data["extrema_modulus"]),
            m_share=int(data["m_share"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed server parameter view: {exc}") from exc
