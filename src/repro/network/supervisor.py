"""Host supervision: respawn dead pool members and re-seed them warm.

:class:`PooledChannel` already survives a member death *query-side*
(failover + eject + half-open probing), but an ejected seat only
rejoins if something restarts a host on its port.  For deployments the
process itself forked (:func:`~repro.network.host.launch_forked_pools`)
this module closes the loop: a :class:`HostSupervisor` watches every
forked member process, respawns a dead one with exponential backoff on
a fresh ephemeral port, and hands the new address to the role channel's
``rejoin`` — which replays the journaled state broadcasts
(``__construct__``, ``receive_shares``) so the replacement joins
*warm*, holding the exact replica state of its siblings, and re-enters
rotation.

Every TCP role is a :class:`~repro.network.dispatch.PooledChannel`,
so one call heals every seat: :meth:`PooledChannel.rejoin` re-binds one
seat of a pool, including a single-host role's only seat.
"""

from __future__ import annotations

import threading
import time

from repro.exceptions import ProtocolError, QueryError
from repro.network.dispatch import _swallow
from repro.network.host import launch_forked_pools, reap_processes

#: Respawn backoff: first retry after the base delay, doubling per
#: consecutive failure up to the cap.
RESPAWN_BACKOFF_BASE = 0.25
RESPAWN_BACKOFF_CAP = 5.0


class _Seat:
    """One supervised pool member: role, slot, process, channel."""

    def __init__(self, role: int, slot: int, address, process, channel):
        self.role = role
        self.slot = slot
        self.address = tuple(address)
        self.process = process
        self.channel = channel
        self.down_since: float | None = None
        self.next_attempt = 0.0
        self.backoff = RESPAWN_BACKOFF_BASE

    @property
    def label(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"


class HostSupervisor:
    """Watch forked pool members; respawn + warm-rejoin the dead ones.

    Built from the same ``(pools, processes)`` pair
    :func:`~repro.network.host.launch_forked_pools` returned (processes
    are flat in pool order) and the :class:`~repro.core.system.PrismSystem`
    whose role channels serve those pools.  ``start()`` runs the watch
    loop on a daemon thread; ``poll()`` is public so tests can drive
    recovery deterministically.  ``close()`` reaps every process it
    ever owned — current and replaced — so ``system.close()`` leaves no
    orphans.
    """

    def __init__(self, system, pools, processes, host: str = "127.0.0.1",
                 poll_interval: float = 0.1,
                 respawn_backoff: float = RESPAWN_BACKOFF_BASE,
                 backoff_cap: float = RESPAWN_BACKOFF_CAP):
        self.host = host
        self.poll_interval = poll_interval
        self.respawn_backoff = respawn_backoff
        self.backoff_cap = backoff_cap
        self._seats: list[_Seat] = []
        process_iter = iter(processes)
        for role, pool in enumerate(pools):
            channel = system._channels[role]
            for slot, address in enumerate(pool):
                seat = _Seat(role, slot, address, next(process_iter), channel)
                seat.backoff = respawn_backoff
                self._seats.append(seat)
        self._dead: list = []
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._paused = threading.Event()
        self._thread: threading.Thread | None = None
        self._respawns = 0
        self._respawn_failures = 0
        self._recovery_seconds: list[float] = []
        system.supervisor = self

    def start(self) -> "HostSupervisor":
        """Run the watch loop on a daemon thread (idempotent)."""
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run, name="repro-supervisor", daemon=True)
                self._thread.start()
        return self

    def _run(self) -> None:
        while not self._closing.wait(self.poll_interval):
            try:
                self.poll()
            except Exception as exc:  # noqa: BLE001 - loop must survive
                # The watch loop must survive anything a single respawn
                # attempt does (backoff state limits retry pressure),
                # but the cause lands in the traffic stats, not a void.
                _swallow("supervisor-poll", exc)

    def poll(self) -> None:
        """One supervision pass (public for deterministic tests)."""
        if self._closing.is_set() or self._paused.is_set():
            return
        now = time.monotonic()
        for seat in self._seats:
            if self._closing.is_set():
                return
            if seat.process.is_alive():
                seat.down_since = None
                seat.backoff = self.respawn_backoff
                continue
            if getattr(seat.channel, "closed", False):
                continue  # intentional teardown, not a crash
            if seat.down_since is None:
                seat.down_since = now
                seat.next_attempt = now
            if now >= seat.next_attempt:
                self._respawn(seat)

    def pause(self) -> None:
        """Suspend respawns (tests observe degraded mode undisturbed)."""
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def _respawn(self, seat: _Seat) -> None:
        down_since = seat.down_since
        # One fresh host on an ephemeral port, for the rejoin to
        # replay the journal into.
        pools, processes = launch_forked_pools([1], self.host)
        address, process = pools[0][0], processes[0]
        try:
            seat.channel.rejoin(seat.slot, address, warm_from=0,
                                connect_timeout=5.0)
        except (ProtocolError, QueryError, OSError) as exc:
            # Expected respawn failures retry with backoff — surfaced,
            # not silent.  Anything *typed but unexpected* (AuthError,
            # a decode bug) propagates to the watch-loop guard instead
            # of being mistaken for a flaky host.
            _swallow("supervisor-respawn", exc)
            reap_processes([process])
            with self._lock:
                self._respawn_failures += 1
            seat.next_attempt = time.monotonic() + seat.backoff
            seat.backoff = min(seat.backoff * 2, self.backoff_cap)
            return
        with self._lock:
            self._dead.append(seat.process)
            seat.process = process
            seat.address = tuple(address)
            seat.down_since = None
            seat.backoff = self.respawn_backoff
            self._respawns += 1
            if down_since is not None:
                self._recovery_seconds.append(time.monotonic() - down_since)
        hook = getattr(seat.channel, "on_event", None)
        if hook is not None:
            try:
                hook("respawn", seat.label)
            except Exception as exc:  # noqa: BLE001 - hook is user code
                _swallow("supervisor-hook", exc)

    def process_for(self, role: int, slot: int):
        """The live process currently seated at ``(role, slot)``."""
        for seat in self._seats:
            if seat.role == role and seat.slot == slot:
                return seat.process
        raise KeyError((role, slot))

    @property
    def processes(self) -> list:
        """Every process the supervisor owns: current seats + replaced."""
        with self._lock:
            return [seat.process for seat in self._seats] + list(self._dead)

    @property
    def stats(self) -> dict:
        with self._lock:
            recoveries = list(self._recovery_seconds)
            return {
                "supervised": len(self._seats),
                "respawns": self._respawns,
                "respawn_failures": self._respawn_failures,
                "recovery_seconds": recoveries,
                "last_recovery_seconds": (recoveries[-1] if recoveries
                                          else None),
            }

    def close(self) -> None:
        """Stop supervising and reap every owned process (idempotent)."""
        self._closing.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=10.0)
        reap_processes(self.processes)
