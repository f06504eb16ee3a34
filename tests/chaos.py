"""Chaos harness: inject process/transport faults at named protocol points.

A :class:`Fault` names *where* in the protocol a failure strikes — a
server role, a pool seat, and a frame-kind pattern (the "named protocol
point": ``indicator_round``, ``extrema_collect``, …) —
and *what* happens there:

* ``sigkill`` — SIGKILL the seat's host process the moment the matching
  frame is about to be issued to it (the crash lands mid-request:
  frames already in flight die with the process).
* ``sigstop`` — SIGSTOP the process instead: the member hangs rather
  than dies, exercising the timeout → eject path.
* ``slow`` — SIGSTOP now, SIGCONT after ``resume_after`` seconds on a
  timer thread: a transient stall (slow socket) rather than a death.
* ``disconnect`` — raise :class:`ConnectionLost` at the injection seam
  without touching any process: a pure transport fault.

:class:`ChaosInjector` wires a :class:`FaultPlan` into a built system's
pooled channels through their ``fault_injector`` seam (consulted before
every unicast issue), mapping ``(role, slot)`` seats to the forked
processes of :func:`~repro.network.host.launch_forked_pools`.

Tampering (a *malicious*, not crashed, member) is deliberately not a
``Fault`` action: CONSTRUCT broadcasts one server class to every pool
member, so per-member tamper is not expressible at this seam — whole-
role adversaries via ``server_factories`` cover it
(``test_multihost_matrix.py::test_malicious_pool_member_detected``).
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass, field
from fnmatch import fnmatch

from repro.network.dispatch import ConnectionLost


@dataclass
class Fault:
    """One injected failure at a named protocol point."""

    role: int                  #: server role whose pool is targeted
    member: int = 0            #: pool slot of the victim seat
    kind: str = "*"            #: fnmatch pattern over the frame kind
    after: int = 0             #: matching frames to let through first
    action: str = "sigkill"    #: sigkill | sigstop | slow | disconnect
    resume_after: float = 0.5  #: seconds until SIGCONT (action="slow")
    seen: int = field(default=0, compare=False)
    done: bool = field(default=False, compare=False)

    def matches(self, role: int, slot: int, kind: str) -> bool:
        return (not self.done and role == self.role
                and slot == self.member and fnmatch(kind, self.kind))


class FaultPlan:
    """An ordered collection of faults armed into one injector."""

    def __init__(self, *faults: Fault):
        self.faults = list(faults)

    def __iter__(self):
        return iter(self.faults)


class ChaosInjector:
    """Arm faults against a built pooled system's dispatch seams.

    Args:
        system: a :class:`~repro.core.system.PrismSystem` on a pooled
            tcp deployment (channels exposing ``fault_injector``).
        processes: the flat pool-ordered process list from
            :func:`~repro.network.host.launch_forked_pools` (the same
            pools the system connected to).
        pools: the pools structure itself, to map flat processes to
            ``(role, slot)`` seats.
    """

    def __init__(self, system, pools, processes):
        self._processes: dict[tuple[int, int], object] = {}
        process_iter = iter(processes)
        for role, pool in enumerate(pools):
            for slot, _address in enumerate(pool):
                self._processes[(role, slot)] = next(process_iter)
        self._plan: list[Fault] = []
        self._stopped: list[int] = []
        self._lock = threading.Lock()
        self.fired = 0
        for role, channel in enumerate(system._channels):
            if hasattr(channel, "fault_injector"):
                channel.fault_injector = self._interceptor(role)

    def arm(self, *faults: Fault) -> "ChaosInjector":
        """Queue faults (replacing any spent plan is the caller's job)."""
        with self._lock:
            self._plan.extend(faults)
        return self

    def _interceptor(self, role: int):
        def intercept(member, message):
            self._intercept(role, member, message)
        return intercept

    def _intercept(self, role: int, member, message) -> None:
        with self._lock:
            fault = None
            for candidate in self._plan:
                if candidate.matches(role, member.slot, message.kind):
                    if candidate.seen < candidate.after:
                        candidate.seen += 1
                        continue
                    candidate.done = True
                    fault = candidate
                    break
            if fault is None:
                return
            self.fired += 1
        self._fire(fault, role, member)

    def _fire(self, fault: Fault, role: int, member) -> None:
        if fault.action == "disconnect":
            raise ConnectionLost(
                f"chaos: injected disconnect from pool member "
                f"{member.label}")
        process = self._processes[(role, fault.member)]
        if fault.action == "sigkill":
            os.kill(process.pid, signal.SIGKILL)
            # Join before the frame is issued: the death is guaranteed
            # to land mid-request, never racing the reply.
            process.join(10)
        elif fault.action in ("sigstop", "slow"):
            os.kill(process.pid, signal.SIGSTOP)
            with self._lock:
                self._stopped.append(process.pid)
            if fault.action == "slow":
                pid = process.pid
                timer = threading.Timer(
                    fault.resume_after, _sigcont, args=(pid,))
                timer.daemon = True
                timer.start()
        else:
            raise ValueError(f"unknown chaos action {fault.action!r}")

    def resume_all(self) -> None:
        """SIGCONT everything this injector stopped (idempotent)."""
        with self._lock:
            stopped, self._stopped = self._stopped, []
        for pid in stopped:
            _sigcont(pid)


def _sigcont(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGCONT)
    except (ProcessLookupError, OSError):
        pass
