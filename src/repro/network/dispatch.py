"""Multi-host dispatch: multiplexed peers driven by their own callers.

Every TCP server role is reached through one class,
:class:`PooledChannel`, whose pool may hold a single host.  There is no
I/O thread: each connection (:class:`_MuxConnection`) is driven by the
threads that use it, leader/follower style, and the properties the
scale-out story needs follow from that:

* **Request pipelining** — a caller may issue any number of requests on
  one connection before collecting replies;
  :meth:`_MuxConnection.request` queues the frame and writes what the
  socket takes at once.  The entity host serves a connection serially
  in order, so pipelined frames overlap client-side work (and the
  *other* roles' sweeps) with the host's compute.
  :meth:`PooledChannel.issue` sends a batch of frames and returns the
  call that collects them, which is how the batch engine issues every
  server's round before it waits on any.
* **Caller-driven replies** — a thread waiting in
  :meth:`PendingReply.result` takes the connection's I/O role: it polls
  this one socket, writes the rest of the outbox, and delivers every
  frame it reads to the future registered under its correlation id,
  until its own reply is in or its deadline passes.  Other waiters
  follow on a condition and find their reply delivered or take the role
  in turn.  An unknown id is a protocol violation that poisons the
  connection; it can never deliver to the wrong caller.
* **Connection pooling** — :class:`PooledChannel` holds one multiplexed
  connection per member of a server role's host pool.  State-changing
  kinds broadcast to every member (replicas stay identical);
  every read goes to the least-loaded member, so span frames issued
  together fan out across the pool, which is how one fused sweep runs
  on several hosts at once.

Transport-level failures (EOF, reset, timeout) raise
:class:`ConnectionLost` — a :class:`~repro.exceptions.ProtocolError`
subclass — on a connection.  Nothing watches an idle connection: a
member that died while idle is found by its next request.  A role
self-heals instead of failing: reads and span sweeps are idempotent
(every replica holds identical state because :data:`BROADCAST_KINDS`
reach all members), so :class:`PooledChannel` retransmits a lost frame
to a surviving member, ejects the dead one behind a circuit breaker
with half-open probing (replaying the journaled state broadcasts into a
rejoining host), and degrades down to any pool size ≥ 1 before
surfacing a typed :class:`~repro.exceptions.QueryError` naming the
exhausted pool.  A pool of one has no survivor to fail over to: its
host's death surfaces that :class:`~repro.exceptions.QueryError`, and a
probe or a :class:`~repro.network.supervisor.HostSupervisor` respawn
rejoins the seat warm.
"""

from __future__ import annotations

import bisect
import itertools
import random
import select
import socket
import threading
import time
import weakref
from concurrent.futures import Future

from repro.exceptions import ProtocolError, QueryError
from repro.network.codec import (
    _FRAME_HEADER,
    FRAME_MAGIC,
    FULL_SPAN,
    decode_frame,
)
from repro.network.rpc import (
    CONSTRUCT,
    ERROR,
    MAX_FRAME_BYTES,
    PING,
    RESULT,
    SHUTDOWN,
    _LENGTH,
    Channel,
    RpcMessage,
    _remote_exception,
    encode_frame,
)


class ConnectionLost(ProtocolError):
    """The transport under an in-flight request died (EOF/reset/timeout)."""


class ReplyTimeout(ConnectionLost):
    """A reply missed its deadline: the host may be alive but hung."""


#: Kinds that must reach *every* member of a host pool: replicas answer
#: read-only requests interchangeably only because each one received the
#: same outsourced shares, the same constructed entity, and the same
#: lifecycle transitions.
BROADCAST_KINDS = frozenset({CONSTRUCT, SHUTDOWN, "receive_shares", "close"})

#: The state-*establishing* subset of the broadcasts: what a channel
#: journals so a respawned or reconnecting pool member can be replayed
#: back to the exact state of its replicas.  Lifecycle transitions
#: (shutdown, close) are deliberately excluded — replaying them would
#: tear a fresh member straight back down.
JOURNAL_KINDS = frozenset({CONSTRUCT, "receive_shares"})

#: Lifecycle / health kinds get their own short deadline: a liveness
#: probe must answer in seconds even when sweeps are allowed minutes.
LIFECYCLE_KINDS = frozenset({PING, SHUTDOWN, "close"})

#: Default deadline for lifecycle kinds and rejoin verification pings.
PROBE_TIMEOUT = 5.0

#: How long a half-open probe or rejoin spends connecting to a member.
PROBE_CONNECT_TIMEOUT = 0.5

#: Circuit-breaker backoff for ejected pool members: first half-open
#: probe after the base delay, doubling per failed probe up to the cap.
EJECT_BACKOFF_BASE = 0.25
EJECT_BACKOFF_CAP = 15.0

#: Boot-connect retry backoff (exponential, full jitter, capped) — a
#: 3-role × N-member boot must not thundering-herd a slow host.
_CONNECT_BACKOFF_BASE = 0.01
_CONNECT_BACKOFF_CAP = 1.0

_RECV_CHUNK = 1 << 20


def _lifecycle_timeout(request_timeout: float | None,
                       probe_timeout: float | None) -> float | None:
    """The deadline for a lifecycle/probe RPC: the tighter of the two."""
    candidates = [t for t in (request_timeout, probe_timeout)
                  if t is not None]
    return min(candidates) if candidates else None


def _replay_journal(conn: "_MuxConnection", frames,
                    timeout: float | None) -> None:
    """Re-send journaled state broadcasts to one (re)joining member."""
    for message in frames:
        conn.request(message).result(timeout)


#: Transports whose :class:`~repro.network.transport.TrafficStats`
#: receive ``swallowed-*`` events (weak, so registering a system never
#: pins it past its own teardown).
_EVENT_SINKS: "weakref.WeakSet" = weakref.WeakSet()


def register_event_sink(transport) -> None:
    """Surface deliberately-swallowed dispatch-layer exceptions.

    The handlers that must stay broad (the pool observability hook,
    the half-open rejoin probe) report whatever they catch to
    every registered transport as a
    ``swallowed-<site>:<ExceptionType>`` event, so a typed error eaten
    during eject/respawn shows up in ``TrafficStats`` instead of
    vanishing.
    """
    _EVENT_SINKS.add(transport)


def _swallow(where: str, exc: BaseException) -> None:
    """Count one swallowed exception on every registered sink."""
    for transport in list(_EVENT_SINKS):
        try:
            transport.stats.count_event(
                f"swallowed-{where}:{type(exc).__name__}")
        except Exception:  # noqa: BLE001 - the sink must never re-raise
            pass


def _journal_key(message: RpcMessage):
    """Compaction key of a journaled frame, or ``None`` (keep forever).

    ``ServerStore.put`` *replaces* the stored column, so a later
    ``receive_shares`` for the same ``(owner, column, kind)`` makes the
    earlier frame dead weight: replaying only the survivor re-creates
    the exact replica state.  Channels use this to drop superseded
    frames instead of growing the journal by one frame per outsourcing
    round for the life of the pool.  ``__construct__`` frames (and any
    frame whose payload does not look like the ``receive_shares`` wire
    shape) have no key and are never compacted away.
    """
    if message.kind != "receive_shares":
        return None
    payload = message.payload
    args = payload.get("a") if isinstance(payload, dict) else None
    if not isinstance(args, (list, tuple)) or len(args) < 4:
        return None
    owner_id, column, _values, kind = args[:4]
    return (message.kind, owner_id, column, str(kind))


def _parse_address(label: str) -> tuple[str, int]:
    """``host:port`` out of a connection label (best effort)."""
    host, _, port = label.rpartition(":")
    try:
        return (host or label), int(port)
    except ValueError:
        return label, 0


class _MuxConnection:
    """One multiplexed peer: outbox, reassembly buffer, pending futures.

    No thread of its own drives it.  :meth:`request` queues a frame and
    writes what the socket takes without blocking; a thread waiting on
    a reply (:meth:`wait`) takes the connection's I/O role and runs
    :meth:`_drive` until its own future is done.  Every state change
    happens under one lock, and a future leaves :attr:`_pending` only
    completed, so a follower woken on :attr:`_io_free` finds its reply
    delivered, the connection dead, or the role free.

    The protocol half (:meth:`receive_bytes`, :meth:`_deliver`,
    :meth:`connection_lost`) is pure byte-stream logic, so the
    multiplexer's routing invariants are directly property-testable
    without sockets (``sock=None``).
    """

    def __init__(self, sock: socket.socket | None, label: str = "?"):
        self.sock = sock
        self.label = label
        self._lock = threading.Lock()
        #: Signalled when the I/O role is released or a reply lands.
        self._io_free = threading.Condition(self._lock)
        self._leader = False
        self._outbox = bytearray()
        self._rx = bytearray()
        # Preallocated receive window: ``recv_into`` here instead of a
        # fresh 1 MiB ``recv`` allocation per read.  Only the thread in
        # the I/O role touches it, and ``receive_bytes`` copies the
        # filled span into the reassembly buffer before the next read
        # can overwrite the window.
        self._recv_buf = bytearray(_RECV_CHUNK) if sock is not None else None
        self._poller = None
        self._pending: dict[int, Future] = {}
        self._ids = itertools.count(1)
        self._dead: Exception | None = None
        self.requests = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        if sock is not None:
            sock.setblocking(False)
            self._poller = select.poll()
            self._poller.register(sock, select.POLLIN)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._dead is not None

    # -- caller side ----------------------------------------------------------

    def request(self, message: RpcMessage) -> "PendingReply":
        """Queue one request frame and write what the socket takes now;
        returns a handle for its reply."""
        with self._lock:
            if self._dead is not None:
                raise ConnectionLost(
                    f"channel to entity host {self.label} is closed: "
                    f"{self._dead}")
            correlation_id = next(self._ids)
            blob = encode_frame(message.kind, correlation_id, message.span,
                                message.payload)
            self._outbox += _LENGTH.pack(len(blob))
            self._outbox += blob
            future: Future = Future()
            self._pending[correlation_id] = future
            self.requests += 1
            self.bytes_sent += len(blob) + _LENGTH.size
            error = self._flush_locked()
        if error is not None:
            self.connection_lost(error)
        return PendingReply(self, correlation_id, future, message.kind)

    def wait(self, future: Future, timeout: float | None) -> bool:
        """Block until ``future`` is done, driving the socket when no
        other thread is; ``False`` when ``timeout`` passes first."""
        return self._run(future.done, timeout)

    def flush(self, timeout: float | None) -> None:
        """Block until the outbox is written, driving the socket (and
        delivering the replies it reads) when no other thread is.

        :meth:`request` writes only what the socket takes at once; the
        rest of a frame larger than the socket buffer would wait for a
        thread to wait on this connection, so a caller issuing to
        several hosts would start them one collect at a time.

        Raises:
            ReplyTimeout: when ``timeout`` passes first; the connection
                is poisoned, as for a missed reply.
        """
        if not self._outbox or self.sock is None:
            return
        if not self._run(lambda: not self._outbox, timeout):
            lost = ReplyTimeout(
                f"entity host {self.label} did not read a request within "
                f"{timeout:.1f}s")
            self.connection_lost(lost)
            raise lost

    def _run(self, done, timeout: float | None) -> bool:
        """Block until ``done()``, taking the I/O role whenever it is
        free; ``False`` when ``timeout`` passes first."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while not done():
                if not self._leader and self.sock is not None:
                    self._leader = True
                    break
                remaining = _remaining(deadline)
                if remaining == 0.0:
                    return False
                self._io_free.wait(remaining)
            else:
                return True
        try:
            return self._drive(done, deadline)
        finally:
            with self._lock:
                self._leader = False
                if self._dead is not None:
                    self._close_locked()
                self._io_free.notify_all()

    def close(self) -> None:
        """Caller-initiated teardown (fails any in-flight requests)."""
        self.connection_lost(ConnectionLost(
            f"channel to entity host {self.label} was closed locally"))

    # -- the I/O role ---------------------------------------------------------

    def _drive(self, done, deadline: float | None) -> bool:
        """Poll, write and read this socket until ``done()``.

        Write readiness is requested whenever the outbox is non-empty: a
        frame larger than the socket buffer must keep draining while
        the host writes its replies, or both sides block on a full
        buffer.  Emptying the outbox wakes the threads waiting in
        :meth:`flush`.
        """
        while True:
            with self._lock:
                if self._dead is not None:
                    return True  # every pending future was failed
                queued = bool(self._outbox)
                error = self._flush_locked()
                events = select.POLLIN
                if self._outbox:
                    events |= select.POLLOUT
                elif queued:
                    self._io_free.notify_all()
            if error is not None:
                self.connection_lost(error)
                continue
            if done():
                return True
            remaining = _remaining(deadline)
            if remaining == 0.0:
                return False
            self._poller.modify(self.sock, events)
            ready = self._poller.poll(
                None if remaining is None else remaining * 1000)
            if ready and ready[0][1] & ~select.POLLOUT:
                self._on_readable()

    def _flush_locked(self) -> Exception | None:
        """Write what the socket accepts of the outbox (lock held);
        returns the transport error that killed the connection, if any."""
        outbox = self._outbox
        while outbox and self.sock is not None and self._dead is None:
            try:
                sent = self.sock.send(outbox)
            except (BlockingIOError, InterruptedError):
                return None
            except OSError as exc:
                return ConnectionLost(
                    f"connection to entity host {self.label} failed: {exc}")
            del outbox[:sent]
        return None

    def _on_readable(self) -> None:
        """Drain the socket into the reassembly buffer (I/O role)."""
        window = self._recv_buf
        view = memoryview(window)
        while True:
            try:
                received = self.sock.recv_into(window)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self.connection_lost(ConnectionLost(
                    f"connection to entity host {self.label} failed: {exc}"))
                return
            if not received:
                self.connection_lost(ConnectionLost(
                    f"entity host {self.label} closed the connection with "
                    f"{self.in_flight} request(s) in flight"))
                return
            try:
                self.receive_bytes(view[:received])
            except ProtocolError as exc:
                self.connection_lost(exc)
                return
            if received < _RECV_CHUNK:
                return

    def _close_locked(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass

    # -- protocol logic (socket-free, property-tested) ------------------------

    def receive_bytes(self, data) -> None:
        """Feed received bytes (any bytes-like); delivers every completed
        frame.  Views into a reused receive window are safe: the span is
        appended (copied) into the reassembly buffer immediately, and
        completed frames are sliced out as immutable ``bytes`` before
        the zero-copy decoder ever sees them.

        Raises:
            ProtocolError: on a malformed length prefix or frame
                envelope, or an unsolicited correlation id — the caller
                must treat the stream as poisoned
                (:meth:`connection_lost`); partial trailing frames
                simply wait for more bytes.
        """
        self._rx += data
        while True:
            if len(self._rx) < _LENGTH.size:
                return
            (length,) = _LENGTH.unpack_from(self._rx, 0)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame length {length} exceeds the wire cap")
            end = _LENGTH.size + length
            if len(self._rx) < end:
                return
            blob = bytes(self._rx[_LENGTH.size:end])
            del self._rx[:end]
            self.bytes_received += end
            self._deliver(blob)

    def _deliver(self, blob: bytes) -> None:
        """Route one reply frame to the future holding its correlation id."""
        if len(blob) < _FRAME_HEADER.size:
            raise ProtocolError("wire frame too short for its envelope")
        magic, _version, correlation_id, _lo, _hi = _FRAME_HEADER.unpack_from(
            blob, 0)
        if magic != FRAME_MAGIC:
            raise ProtocolError(f"bad frame magic byte 0x{magic:02x}")
        with self._lock:
            if correlation_id == 0:
                # The host could not decode a request, so it never
                # learned our correlation id.  The host serves a
                # connection strictly in order, so this reply belongs
                # to the oldest in-flight request.
                correlation_id = min(self._pending, default=0)
            future = self._pending.pop(correlation_id, None)
            if future is not None:
                future.set_result(blob)
                self._io_free.notify_all()
        if future is None:
            raise ProtocolError(
                f"unsolicited correlation id {correlation_id} from "
                f"entity host {self.label}")

    def connection_lost(self, exc: Exception) -> None:
        """Poison the connection: fail every in-flight request with ``exc``.

        Idempotent; safe from any thread.  After a loss nothing can be
        mis-delivered — the pending map is cleared atomically and later
        frames have nowhere to land.  A thread in the I/O role may be
        polling the socket: it is woken by a shutdown and closes the
        socket itself when it leaves the role, so the descriptor is
        never freed under a poll.
        """
        with self._lock:
            if self._dead is not None:
                return
            self._dead = exc
            for future in self._pending.values():
                future.set_exception(exc)
            self._pending.clear()
            self._outbox.clear()
            if not self._leader:
                self._close_locked()
            elif self.sock is not None:
                try:
                    self.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            self._io_free.notify_all()

    @property
    def stats(self) -> dict:
        return {"requests": self.requests, "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received}


def _remaining(deadline: float | None) -> float | None:
    """Seconds left before ``deadline`` (``None``: no deadline), ≥ 0."""
    if deadline is None:
        return None
    return max(0.0, deadline - time.monotonic())


class PendingReply:
    """Handle for one pipelined request's eventual reply."""

    def __init__(self, conn: _MuxConnection, correlation_id: int,
                 future: Future, kind: str):
        self._conn = conn
        self._correlation_id = correlation_id
        self._future = future
        self._kind = kind

    def result(self, timeout: float | None = None) -> RpcMessage:
        """Block for the reply; decodes and error-maps on this thread.

        While the reply is out, this thread drives the connection
        (:meth:`_MuxConnection.wait`).  Raises the rebuilt remote
        exception for ``__error__`` replies and :class:`ConnectionLost`
        when the transport died (or the ``timeout`` elapsed — which
        also poisons the connection: after a timeout the reply stream
        can no longer be trusted to line up with the pending ids).
        """
        future = self._future
        if not future.done() and not self._conn.wait(future, timeout):
            lost = ReplyTimeout(
                f"request {self._kind!r} to entity host {self._conn.label} "
                f"timed out after {timeout:.1f}s")
            self._conn.connection_lost(lost)
            raise lost
        try:
            blob = future.result()
        except ConnectionLost as exc:
            raise ConnectionLost(
                f"{exc} (while waiting for {self._kind!r})") from exc
        frame = decode_frame(blob)
        # Error replies surface before the correlation check: the real
        # diagnostic beats a mismatch report (mirrors _StreamChannel).
        if frame.kind == ERROR:
            raise _remote_exception(frame.payload)
        if frame.correlation_id != self._correlation_id:
            raise ProtocolError(
                f"correlation mismatch: sent {self._correlation_id}, got "
                f"{frame.correlation_id}")
        if frame.kind != RESULT:
            raise ProtocolError(f"unexpected reply kind {frame.kind!r}")
        return RpcMessage(frame.kind, frame.payload, frame.correlation_id,
                          frame.span)


def _connect_retry(host: str, port: int, timeout: float) -> socket.socket:
    """Connect with the boot-retry loop every TCP channel shares.

    Retries with exponential backoff and full jitter (capped) so N
    channels booting against the same slow host spread their attempts
    instead of hammering it in lockstep.
    """
    deadline = time.monotonic() + timeout
    delay = _CONNECT_BACKOFF_BASE
    last_error: Exception | None = None
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            # The connect timeout must not persist: request pacing is
            # the dispatch layer's job (PendingReply.result), not the
            # kernel's.
            sock.settimeout(None)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last_error = exc
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            time.sleep(min(random.uniform(0, delay), remaining))
            delay = min(delay * 2, _CONNECT_BACKOFF_CAP)
    raise ProtocolError(
        f"cannot reach entity host at {host}:{port}: {last_error}")


class _PoolMember:
    """One seat in a host pool: a connection plus its failover state.

    The *seat* survives the connection: when a member dies its seat is
    ejected (circuit breaker opens) and later re-bound to a fresh
    connection by a half-open probe or a supervisor respawn — retired
    connections' traffic counters are accumulated so :attr:`stats`
    stay monotonic across reconnects.
    """

    def __init__(self, slot: int, address: tuple[str, int],
                 conn: _MuxConnection):
        self.slot = slot
        self.address = address
        self.conn = conn
        #: Sequence id of the newest journaled frame this member's host
        #: has applied (``PooledChannel._journal_seqs``).  Ids are
        #: stable across journal compaction — a positional index would
        #: shift every time a superseded frame is dropped — so a warm
        #: rejoin replays exactly the surviving frames past this mark.
        self.journal_applied = 0
        self.ejected_at: float | None = None
        self.probe_at = 0.0
        self.backoff = EJECT_BACKOFF_BASE
        self.probing = False
        #: The seat's last failure was a reply timeout: its host may be
        #: alive but stalled, so only a due breaker probe or a
        #: supervisor rejoin may try it again (a rejoin would replay the
        #: journal into the stalled host and wait out another deadline).
        self.hung = False
        self.failures = 0
        self.reconnects = 0
        self._retired = {"requests": 0, "bytes_sent": 0, "bytes_received": 0}

    @property
    def label(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    @property
    def up(self) -> bool:
        return self.ejected_at is None and not self.conn.closed

    def replace_conn(self, conn: _MuxConnection,
                     address: tuple[str, int] | None = None
                     ) -> _MuxConnection:
        old = self.conn
        for key in self._retired:
            self._retired[key] += old.stats[key]
        self.conn = conn
        if address is not None:
            self.address = (address[0], int(address[1]))
        self.reconnects += 1
        return old

    @property
    def stats(self) -> dict:
        live = self.conn.stats
        return {
            "requests": live["requests"] + self._retired["requests"],
            "bytes_sent": live["bytes_sent"] + self._retired["bytes_sent"],
            "bytes_received": (live["bytes_received"]
                               + self._retired["bytes_received"]),
            "address": self.label,
            "state": "up" if self.up else "ejected",
            "failures": self.failures,
            "reconnects": self.reconnects,
        }


class PooledChannel(Channel):
    """One server role served by a pool of replicated entity hosts.

    Every member holds identical state: :data:`BROADCAST_KINDS`
    (construction, outsourced shares, lifecycle) reach all members, so
    any member can answer any read — every request routes to the
    least-loaded connection, so :meth:`issue` spreads a span
    decomposition across the pool, all members computing their spans
    concurrently.

    Because replicas are identical and reads/span sweeps are
    idempotent, a member dying mid-request is *not* a query failure: the
    lost frame is retransmitted to a surviving member (bit-identical
    result), the dead seat is ejected behind a circuit breaker, and
    half-open probes (or a :class:`~repro.network.supervisor.HostSupervisor`
    respawn calling :meth:`rejoin`) replay the journaled state
    broadcasts so the seat re-enters rotation warm.  Only when *no*
    live member remains does a typed
    :class:`~repro.exceptions.QueryError` surface.
    """

    def __init__(self, members: list[_MuxConnection],
                 request_timeout: float | None = None,
                 probe_timeout: float | None = PROBE_TIMEOUT):
        if not members:
            raise ProtocolError("a host pool needs at least one member")
        self._members = [
            _PoolMember(slot, _parse_address(conn.label), conn)
            for slot, conn in enumerate(members)]
        self.request_timeout = request_timeout
        self.probe_timeout = probe_timeout
        #: State-establishing frames in send order (see JOURNAL_KINDS),
        #: compacted: a ``receive_shares`` superseded by a later one for
        #: the same column is dropped (:meth:`_journal_append`).
        self.journal: list[RpcMessage] = []
        #: Strictly-increasing sequence id per surviving journal frame
        #: (parallel to :attr:`journal`); rejoin bookkeeping uses these
        #: because compaction shifts positions but never reorders.
        self._journal_seqs: list[int] = []
        self._journal_next_seq = 1
        self._journal_compacted = 0
        #: Optional ``callable(event, member_label)`` observability hook
        #: fired on "eject" / "rejoin" / "failover" transitions.
        self.on_event = None
        #: Chaos seam: ``callable(member, message)`` consulted before
        #: every unicast issue; may raise :class:`ConnectionLost` or
        #: kill the member's process (tests/chaos.py).
        self.fault_injector = None
        self._rotation = itertools.count()
        self._scattered = 0
        self._failovers = 0
        self._retransmits = 0
        self._ejections = 0
        self._rejoins = 0
        self._closed = False
        self._lock = threading.Lock()

    @classmethod
    def connect(cls, addresses, timeout: float = 10.0,
                request_timeout: float | None = None,
                probe_timeout: float | None = PROBE_TIMEOUT,
                ) -> "PooledChannel":
        members: list[_MuxConnection] = []
        try:
            for host, port in addresses:
                sock = _connect_retry(host, int(port), timeout)
                members.append(_MuxConnection(sock, f"{host}:{port}"))
        except BaseException:
            for member in members:
                member.close()
            raise
        return cls(members, request_timeout, probe_timeout)

    @property
    def fan_out(self) -> int:
        return len(self._members)

    @property
    def addresses(self) -> list[str]:
        return [member.label for member in self._members]

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        """Refuse work after :meth:`close`: a rejoin would reopen sockets
        that nothing closes again."""
        if self._closed:
            raise ProtocolError("channel is closed")

    # -- member liveness ------------------------------------------------------

    def _emit(self, event: str, member: _PoolMember) -> None:
        hook = self.on_event
        if hook is not None:
            try:
                hook(event, member.label)
            except Exception as exc:  # noqa: BLE001 - hook is user code
                # Observability must never fail a query — but what the
                # hook raised is itself worth observing.
                _swallow("pool-event-hook", exc)

    def _eject(self, member: _PoolMember, exc: Exception) -> None:
        """Open the circuit breaker on a dead seat (idempotent); a seat
        that timed out is marked :attr:`_PoolMember.hung`."""
        first = False
        with self._lock:
            if isinstance(exc, ReplyTimeout):
                member.hung = True
            if member.ejected_at is None:
                member.ejected_at = time.monotonic()
                self._ejections += 1
                first = True
            member.failures += 1
            member.probe_at = time.monotonic() + member.backoff
            member.backoff = min(member.backoff * 2, EJECT_BACKOFF_CAP)
        if not member.conn.closed:
            member.conn.connection_lost(exc)
        if first:
            self._emit("eject", member)

    def _live(self) -> list[_PoolMember]:
        """Non-ejected members, lazily ejecting seats whose conn died."""
        for member in self._members:
            if member.ejected_at is None and member.conn.closed:
                self._eject(member, ConnectionLost(
                    f"connection to pool member {member.label} was lost"))
        return [m for m in self._members if m.ejected_at is None]

    def _pick(self) -> _PoolMember | None:
        live = self._live()
        if not live:
            return None
        # Least-loaded member; the rotating tiebreak spreads an idle
        # pool's traffic instead of pinning it to member 0.
        start = next(self._rotation) % len(live)
        ordered = live[start:] + live[:start]
        return min(ordered, key=lambda member: member.conn.in_flight)

    def _pick_live(self, last_error) -> _PoolMember:
        """A live member, resurrecting ejected seats before giving up.

        Degrading "to any pool size ≥ 1" means an exhausted pool tries
        every ejected seat immediately (ignoring breaker timers) before
        surfacing the failure — except a :attr:`_PoolMember.hung` seat
        whose breaker probe is not yet due, in this call or any later
        one.  The breaker's probe or a supervisor brings those back.
        """
        member = self._pick()
        if member is not None:
            return member
        now = time.monotonic()
        for seat in sorted((m for m in self._members
                            if m.ejected_at is not None
                            and not (m.hung and now < m.probe_at)),
                           key=lambda m: m.probe_at):
            if self._try_rejoin(seat):
                return seat
        raise QueryError(
            "server pool member failover exhausted: no live replica "
            f"remains in pool [{', '.join(self.addresses)}] "
            f"(last error: {last_error})")

    def _maybe_probe(self) -> None:
        """Half-open probe: give at most one due ejected seat a chance."""
        if self._closed:
            return
        now = time.monotonic()
        for member in self._members:
            with self._lock:
                due = (member.ejected_at is not None and not member.probing
                       and now >= member.probe_at)
                if due:
                    member.probing = True
            if due:
                try:
                    self._try_rejoin(member)
                finally:
                    member.probing = False
                return

    def _try_rejoin(self, member: _PoolMember) -> bool:
        try:
            self.rejoin(member.slot, warm_from=member.journal_applied,
                        connect_timeout=PROBE_CONNECT_TIMEOUT)
            return True
        except (ProtocolError, QueryError, OSError) as exc:
            _swallow("rejoin-probe", exc)
            with self._lock:
                member.probe_at = time.monotonic() + member.backoff
                member.backoff = min(member.backoff * 2, EJECT_BACKOFF_CAP)
            return False

    def rejoin(self, slot: int, address: tuple[str, int] | None = None,
               warm_from: int = 0,
               connect_timeout: float = PROBE_CONNECT_TIMEOUT) -> None:
        """Re-bind seat ``slot`` to a live host and return it to rotation.

        Called by half-open probes (same address, host survived or was
        externally restarted on its port) and by the supervisor after a
        respawn (new ``address``, fresh process, ``warm_from=0``).
        ``warm_from`` is a journal *sequence id* (``0`` = replay
        everything): the surviving journaled broadcasts past it are
        replayed and a ping verified before the seat is swapped in; if
        broadcasts land concurrently the replay loops until the journal
        is caught up.
        """
        self._check_open()
        member = self._members[slot]
        host, port = address if address is not None else member.address
        sock = _connect_retry(host, int(port), connect_timeout)
        conn = _MuxConnection(sock, f"{host}:{port}")
        try:
            applied_seq = int(warm_from)
            while True:
                with self._lock:
                    start = bisect.bisect_right(self._journal_seqs,
                                                applied_seq)
                    missing = self.journal[start:]
                    newest_seq = (self._journal_seqs[-1]
                                  if self._journal_seqs else 0)
                if missing:
                    _replay_journal(conn, missing, self.request_timeout)
                    applied_seq = newest_seq
                    continue
                conn.request(RpcMessage(PING)).result(_lifecycle_timeout(
                    self.request_timeout, self.probe_timeout))
                with self._lock:
                    if (self._journal_seqs
                            and self._journal_seqs[-1] > applied_seq):
                        continue  # a broadcast raced the ping; catch up
                    self._check_open()  # close() raced the replay
                    old = member.replace_conn(conn, (host, int(port)))
                    member.journal_applied = applied_seq
                    member.ejected_at = None
                    member.hung = False
                    member.backoff = EJECT_BACKOFF_BASE
                    self._rejoins += 1
                break
        except BaseException:
            conn.close()
            raise
        if not old.closed:
            old.close()
        self._emit("rejoin", member)

    # -- request routing ------------------------------------------------------

    def _timeout_for(self, kind: str) -> float | None:
        if kind in LIFECYCLE_KINDS:
            return _lifecycle_timeout(self.request_timeout,
                                      self.probe_timeout)
        return self.request_timeout

    def _request(self, member: _PoolMember,
                 message: RpcMessage) -> PendingReply:
        """Send one frame to ``member`` in full, so its host starts now."""
        injector = self.fault_injector
        if injector is not None:
            injector(member, message)
        pending = member.conn.request(message)
        member.conn.flush(self._timeout_for(message.kind))
        return pending

    def _finish(self, pending: PendingReply, kind: str) -> RpcMessage:
        return pending.result(self._timeout_for(kind))

    def _fail_over(self, member: _PoolMember, exc: ConnectionLost,
                   retransmit: bool = False) -> None:
        """Eject a seat that failed mid-call and count the failover."""
        self._eject(member, exc)
        with self._lock:
            self._failovers += 1
            if retransmit:
                self._retransmits += 1
        self._emit("failover", member)

    def send(self, message: RpcMessage) -> RpcMessage:
        self._check_open()
        self._maybe_probe()
        if message.kind in BROADCAST_KINDS:
            return self._broadcast(message)
        last_error: Exception | None = None
        while True:
            member = self._pick_live(last_error)
            try:
                pending = self._request(member, message)
                return self._finish(pending, message.kind)
            except ConnectionLost as exc:
                # Reads are idempotent across identical replicas:
                # eject the dead seat and fail over to a survivor.
                last_error = exc
                self._fail_over(member, exc)

    def issue(self, messages):
        """Send ``messages`` now; returns the call that collects their
        replies, in request order.

        Each frame goes to the least-loaded live member and is written
        in full before the next one, so frames issued together spread
        across the pool and every member computes at once.  A member
        dying before its reply is collected retransmits the frame to a
        survivor — reads and spans are idempotent, so the collected
        replies stay bit-identical.
        Span-scoped frames count as :attr:`stats` ``scattered_frames``.
        """
        self._check_open()
        self._maybe_probe()
        messages = list(messages)
        entries = [(message, *self._issue(message)) for message in messages]
        spans = sum(message.span != FULL_SPAN for message in messages)
        with self._lock:
            self._scattered += spans

        def collect() -> list[RpcMessage]:
            return [self._collect(message, member, pending)
                    for message, member, pending in entries]
        return collect

    def _issue(self, message: RpcMessage) -> tuple[_PoolMember, PendingReply]:
        last_error: Exception | None = None
        while True:
            member = self._pick_live(last_error)
            try:
                return member, self._request(member, message)
            except ConnectionLost as exc:
                last_error = exc
                self._fail_over(member, exc)

    def _collect(self, message: RpcMessage, member: _PoolMember,
                 pending: PendingReply) -> RpcMessage:
        while True:
            try:
                return self._finish(pending, message.kind)
            except ConnectionLost as exc:
                self._fail_over(member, exc, retransmit=True)
                member, pending = self._issue(message)

    def _journal_append(self, message: RpcMessage) -> int:
        """Journal one frame (caller holds ``self._lock``); returns its seq.

        Compacts first: if an earlier frame carries the same
        :func:`_journal_key`, it is superseded and dropped.  Member
        ``journal_applied`` marks are sequence ids, not positions, so
        the deletion needs no per-member rebasing — the ids of the
        surviving frames are untouched.
        """
        key = _journal_key(message)
        if key is not None:
            for index, old in enumerate(self.journal):
                if _journal_key(old) == key:
                    del self.journal[index]
                    del self._journal_seqs[index]
                    self._journal_compacted += 1
                    break
        seq = self._journal_next_seq
        self._journal_next_seq += 1
        self.journal.append(message)
        self._journal_seqs.append(seq)
        return seq

    def _broadcast(self, message: RpcMessage) -> RpcMessage:
        """Deliver a state change to every live member (journaling it)."""
        journal_seq = None
        if message.kind in JOURNAL_KINDS:
            with self._lock:
                journal_seq = self._journal_append(message)
        live = self._live()
        if not live:
            self._pick_live(None)  # resurrect an ejected seat or raise
            live = self._live()
        pendings = []
        for member in live:
            try:
                pendings.append((member, self._request(member, message)))
            except ConnectionLost as exc:
                self._eject(member, exc)
        reply = None
        remote_error: Exception | None = None
        for member, pending in pendings:
            try:
                result = self._finish(pending, message.kind)
            except ConnectionLost as exc:
                self._eject(member, exc)
                continue
            except Exception as exc:  # typed remote error — keep first
                if remote_error is None:
                    remote_error = exc
                continue
            if journal_seq is not None:
                member.journal_applied = max(member.journal_applied,
                                             journal_seq)
            if reply is None:
                reply = result
        if remote_error is not None:
            raise remote_error
        if reply is None:
            raise QueryError(
                f"server pool member broadcast {message.kind!r} reached "
                f"no live member of pool [{', '.join(self.addresses)}]")
        return reply

    def shutdown_remote(self) -> None:
        try:
            self.send(RpcMessage(SHUTDOWN))
        except (ProtocolError, QueryError, OSError):
            pass
        self.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
        for member in self._members:
            if not member.conn.closed:
                member.conn.close()

    def health(self) -> dict:
        """Pool liveness snapshot: ``ok`` / ``degraded`` / ``down``."""
        members = []
        up = 0
        for member in self._members:
            state = "up" if member.up else "ejected"
            up += state == "up"
            members.append({"address": member.label, "state": state,
                            "failures": member.failures,
                            "reconnects": member.reconnects})
        ejected = len(members) - up
        if ejected == 0:
            status = "ok"
        elif up:
            status = "degraded"
        else:
            status = "down"
        with self._lock:
            return {
                "status": status,
                "members_up": up,
                "members_ejected": ejected,
                "members": members,
                "failovers": self._failovers,
                "retransmits": self._retransmits,
                "ejections": self._ejections,
                "rejoins": self._rejoins,
            }

    @property
    def stats(self) -> dict:
        members = [member.stats for member in self._members]
        with self._lock:
            return {
                "requests": sum(s["requests"] for s in members),
                "bytes_sent": sum(s["bytes_sent"] for s in members),
                "bytes_received": sum(s["bytes_received"] for s in members),
                "fan_out": len(members),
                "scattered_frames": self._scattered,
                "failovers": self._failovers,
                "retransmits": self._retransmits,
                "ejections": self._ejections,
                "rejoins": self._rejoins,
                "journal_frames": len(self.journal),
                "journal_compacted": self._journal_compacted,
                "members": members,
            }
